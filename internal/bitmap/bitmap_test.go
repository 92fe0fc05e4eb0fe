package bitmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestBitvectorRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		// Dedup + sort into valid positions.
		seen := map[uint64]bool{}
		var pos []uint64
		for _, r := range raw {
			p := uint64(r)
			if !seen[p] {
				seen[p] = true
				pos = append(pos, p)
			}
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		nbits := uint64(1 << 32)
		c := FromPositions(pos, nbits)
		got := c.Positions()
		if len(got) != len(pos) {
			return false
		}
		for i := range pos {
			if got[i] != pos[i] {
				return false
			}
		}
		return c.ones == uint64(len(pos))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBitvectorTest(t *testing.T) {
	pos := []uint64{0, 1, 63, 64, 100, 1000, 1 << 20}
	c := FromPositions(pos, 1<<21)
	want := map[uint64]bool{}
	for _, p := range pos {
		want[p] = true
	}
	for _, p := range []uint64{0, 1, 2, 62, 63, 64, 65, 99, 100, 101, 999, 1000, 1 << 20, 1<<20 + 1} {
		got, scanned := c.Test(p)
		if got != want[p] {
			t.Fatalf("Test(%d) = %v", p, got)
		}
		if scanned <= 0 {
			t.Fatalf("Test(%d) scanned %d words", p, scanned)
		}
	}
}

func TestCompressionOfRuns(t *testing.T) {
	// A long run of ones followed by zeros should collapse into few words.
	var pos []uint64
	for p := uint64(0); p < 63*1000; p++ {
		pos = append(pos, p)
	}
	c := FromPositions(pos, 1<<30)
	if c.Words() > 4 {
		t.Fatalf("dense run encoded in %d words", c.Words())
	}
	// Scattered bits do not compress: one literal each.
	var sparse []uint64
	for p := uint64(0); p < 1000; p++ {
		sparse = append(sparse, p*1000)
	}
	s := FromPositions(sparse, 1<<30)
	if s.Words() < 1000 {
		t.Fatalf("scattered bits in only %d words", s.Words())
	}
}

func TestIterateEarlyStop(t *testing.T) {
	c := FromPositions([]uint64{1, 2, 3, 4, 5}, 100)
	n := 0
	c.Iterate(func(p uint64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("iterated %d", n)
	}
}

func TestEmptyVector(t *testing.T) {
	c := FromPositions(nil, 0)
	if c.ones != 0 {
		t.Fatal("ones")
	}
	if set, _ := c.Test(5); set {
		t.Fatal("empty vector has a bit")
	}
	if got := c.Positions(); len(got) != 0 {
		t.Fatalf("positions: %v", got)
	}
}

// --- Index tests ---

func newIdx(card, merge int) *Index {
	return New(Config{Cardinality: card, MergeThreshold: merge}, nil)
}

func TestIndexBasicOps(t *testing.T) {
	x := newIdx(8, 16)
	if _, ok := x.Get(5); ok {
		t.Fatal("get on empty")
	}
	if err := x.Insert(5, 3); err != nil {
		t.Fatal(err)
	}
	if v, ok := x.Get(5); !ok || v != 3 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if err := x.Insert(5, 4); err != core.ErrKeyExists {
		t.Fatalf("dup: %v", err)
	}
	if !x.Update(5, 6) {
		t.Fatal("update")
	}
	if v, _ := x.Get(5); v != 6 {
		t.Fatalf("updated value %d", v)
	}
	if !x.Delete(5) {
		t.Fatal("delete")
	}
	if x.Delete(5) || x.Len() != 0 {
		t.Fatal("state after delete")
	}
}

func TestIndexValuesReducedModCardinality(t *testing.T) {
	x := newIdx(8, 16)
	if err := x.Insert(1, 8+3); err != nil {
		t.Fatal(err)
	}
	if v, _ := x.Get(1); v != 3 {
		t.Fatalf("stored code %d, want 3", v)
	}
}

func TestIndexRandomizedAgainstMap(t *testing.T) {
	x := newIdx(16, 32)
	rng := rand.New(rand.NewSource(4))
	ref := map[uint64]uint64{}
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(4) {
		case 0:
			v := uint64(rng.Intn(16))
			err := x.Insert(k, v)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency", i)
			}
			if err == nil {
				ref[k] = v
			}
		case 1:
			v, ok := x.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2:
			v := uint64(rng.Intn(16))
			if x.Update(k, v) {
				if _, ok := ref[k]; !ok {
					t.Fatalf("op %d: phantom update", i)
				}
				ref[k] = v
			}
		case 3:
			_, want := ref[k]
			if x.Delete(k) != want {
				t.Fatalf("op %d: delete", i)
			}
			delete(ref, k)
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: len %d want %d", i, x.Len(), len(ref))
		}
	}
	// Scan must agree exactly.
	got := map[uint64]uint64{}
	x.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("scan %d want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("scan[%d] = %d want %d", k, got[k], v)
		}
	}
}

func TestIndexMergeThreshold(t *testing.T) {
	x := newIdx(4, 8)
	for k := uint64(0); k < 100; k++ {
		if err := x.Insert(k, k%4); err != nil {
			t.Fatal(err)
		}
	}
	// Deltas merge at 8 entries, so pending stays below cardinality*8.
	pending := 0
	for _, d := range x.deltas {
		pending += len(d)
	}
	if pending >= 4*8 {
		t.Fatalf("pending %d not bounded by merges", pending)
	}
	for k := uint64(0); k < 100; k++ {
		if v, ok := x.Get(k); !ok || v != k%4 {
			t.Fatalf("Get(%d) after merges", k)
		}
	}
}

func TestIndexUpdateFriendliness(t *testing.T) {
	// The Section-5 design point: a high merge threshold absorbs updates
	// cheaply (low UO), a low threshold pays merge rewrites eagerly.
	churn := func(threshold int) uint64 {
		x := newIdx(8, threshold)
		recs := make([]core.Record, 2000)
		for i := range recs {
			recs[i] = core.Record{Key: uint64(i), Value: uint64(i % 8)}
		}
		if err := x.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		m0 := x.Meter().Snapshot()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 1000; i++ {
			x.Update(uint64(rng.Intn(2000)), uint64(rng.Intn(8)))
		}
		return x.Meter().Diff(m0).PhysicalWritten()
	}
	lazy, eager := churn(1<<20), churn(4)
	if lazy >= eager {
		t.Fatalf("lazy merging should write less: lazy=%d eager=%d", lazy, eager)
	}
}

func TestIndexRows(t *testing.T) {
	x := newIdx(4, 16)
	for k := uint64(0); k < 40; k++ {
		if err := x.Insert(k, k%4); err != nil {
			t.Fatal(err)
		}
	}
	var rows []uint64
	n := x.Rows(2, func(p uint64) bool {
		rows = append(rows, p)
		return true
	})
	if n != 10 {
		t.Fatalf("Rows(2) = %d", n)
	}
	for _, p := range rows {
		if p%4 != 2 {
			t.Fatalf("row %d has wrong code", p)
		}
	}
}

func TestIndexBulkLoadAndScan(t *testing.T) {
	x := newIdx(8, 64)
	recs := make([]core.Record, 1000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 3), Value: uint64(i % 8)}
	}
	if err := x.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1000 {
		t.Fatal("len")
	}
	prev, first := uint64(0), true
	n := x.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		if !first && k <= prev {
			t.Fatal("scan not ascending")
		}
		first, prev = false, k
		return true
	})
	if n != 1000 {
		t.Fatalf("scan emitted %d", n)
	}
}
