package cracking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func loaded(t *testing.T, n int, threshold int) *Store {
	t.Helper()
	s := New(threshold, nil)
	rng := rand.New(rand.NewSource(1))
	recs := make([]core.Record, n)
	perm := rng.Perm(n)
	for i, p := range perm {
		recs[i] = core.Record{Key: uint64(p), Value: uint64(p) * 2}
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBasicOps(t *testing.T) {
	s := New(1<<20, nil)
	if _, ok := s.Get(1); ok {
		t.Fatal("get on empty")
	}
	if err := s.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 11); err != core.ErrKeyExists {
		t.Fatalf("dup: %v", err)
	}
	if v, ok := s.Get(1); !ok || v != 10 {
		t.Fatal("get")
	}
	if !s.Update(1, 20) {
		t.Fatal("update")
	}
	if !s.Delete(1) {
		t.Fatal("delete")
	}
	if s.Delete(1) || s.Len() != 0 {
		t.Fatal("state after delete")
	}
}

func TestGetAfterCracking(t *testing.T) {
	s := loaded(t, 2000, 1<<20)
	for k := uint64(0); k < 2000; k += 7 {
		v, ok := s.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := s.Get(5000); ok {
		t.Fatal("phantom key")
	}
}

func TestPieceInvariants(t *testing.T) {
	s := loaded(t, 3000, 1<<20)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		lo := uint64(rng.Intn(3000))
		s.RangeScan(lo, lo+50, func(core.Key, core.Value) bool { return true })
	}
	// Invariant: bounds sorted by key and by start; every record in a piece
	// respects its bounds.
	for i := 1; i < len(s.bounds); i++ {
		if s.bounds[i].key <= s.bounds[i-1].key {
			t.Fatalf("bounds keys not increasing at %d", i)
		}
		if s.bounds[i].start < s.bounds[i-1].start {
			t.Fatalf("bounds starts not monotone at %d", i)
		}
	}
	for bi, b := range s.bounds {
		end := len(s.recs)
		if bi+1 < len(s.bounds) {
			end = s.bounds[bi+1].start
		}
		var hi uint64 = ^uint64(0)
		if bi+1 < len(s.bounds) {
			hi = s.bounds[bi+1].key
		}
		for i := b.start; i < end; i++ {
			k := s.recs[i].Key
			if k < b.key || k >= hi {
				t.Fatalf("record %d (key %d) violates piece [%d,%d)", i, k, b.key, hi)
			}
		}
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	s := New(64, nil) // small threshold: exercise merges
	rng := rand.New(rand.NewSource(5))
	ref := map[uint64]uint64{}
	for i := 0; i < 8000; i++ {
		k := uint64(rng.Intn(1500))
		switch rng.Intn(5) {
		case 0:
			err := s.Insert(k, k)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency on %d: %v", i, k, err)
			}
			if err == nil {
				ref[k] = k
			}
		case 1:
			v, ok := s.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2:
			nv := rng.Uint64() >> 1
			if s.Update(k, nv) {
				if _, ok := ref[k]; !ok {
					t.Fatalf("op %d: phantom update", i)
				}
				ref[k] = nv
			} else if _, ok := ref[k]; ok {
				t.Fatalf("op %d: missed update", i)
			}
		case 3:
			_, want := ref[k]
			if s.Delete(k) != want {
				t.Fatalf("op %d: delete(%d) want %v", i, k, want)
			}
			delete(ref, k)
		case 4:
			lo := uint64(rng.Intn(1500))
			hi := lo + uint64(rng.Intn(100))
			want := 0
			for rk := range ref {
				if rk >= lo && rk <= hi {
					want++
				}
			}
			got := s.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
				if ref[k] != v {
					t.Fatalf("op %d: scan value of %d", i, k)
				}
				return true
			})
			if got != want {
				t.Fatalf("op %d: range [%d,%d] = %d want %d", i, lo, hi, got, want)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: len %d want %d", i, s.Len(), len(ref))
		}
	}
}

func TestConvergence(t *testing.T) {
	s := loaded(t, 1<<14, 1<<20)
	costOf := func(queries int) uint64 {
		m0 := s.Meter().Snapshot()
		rng := rand.New(rand.NewSource(9))
		for q := 0; q < queries; q++ {
			lo := uint64(rng.Intn(1 << 14))
			s.RangeScan(lo, lo+32, func(core.Key, core.Value) bool { return true })
		}
		return s.Meter().Diff(m0).PhysicalRead() / uint64(queries)
	}
	early := costOf(20)
	_ = costOf(200) // keep cracking
	late := costOf(20)
	if late*5 > early {
		t.Fatalf("no convergence: early %d late %d", early, late)
	}
	if s.Stats().Cracks == 0 || s.Stats().Swaps == 0 {
		t.Fatal("no cracking work recorded")
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	s := loaded(t, 100, 1<<20)
	if !s.Delete(50) {
		t.Fatal("delete")
	}
	if err := s.Insert(50, 999); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if v, ok := s.Get(50); !ok || v != 999 {
		t.Fatalf("Get after reinsert = %d,%v", v, ok)
	}
	// The stale copy in the cracked column must stay hidden in scans too.
	seen := 0
	s.RangeScan(50, 50, func(k core.Key, v core.Value) bool {
		seen++
		if v != 999 {
			t.Fatalf("scan surfaced stale copy: %d", v)
		}
		return true
	})
	if seen != 1 {
		t.Fatalf("key 50 emitted %d times", seen)
	}
	// And merge must not resurrect it.
	s.merge()
	if v, ok := s.Get(50); !ok || v != 999 {
		t.Fatalf("after merge: %d,%v", v, ok)
	}
	if s.Len() != 100 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestMergeFoldsPending(t *testing.T) {
	s := loaded(t, 100, 16)
	for k := uint64(1000); k < 1020; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Merges == 0 {
		t.Fatal("threshold 16 never merged")
	}
	if len(s.pending) >= 16 {
		t.Fatalf("pending %d after merges", len(s.pending))
	}
	for k := uint64(1000); k < 1020; k++ {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d lost in merge", k)
		}
	}
}

func TestScanAscendingProperty(t *testing.T) {
	f := func(keys []uint16, q uint16) bool {
		s := New(1<<20, nil)
		seen := map[uint64]bool{}
		for _, k := range keys {
			if !seen[uint64(k)] {
				seen[uint64(k)] = true
				if err := s.Insert(uint64(k), 1); err != nil {
					return false
				}
			}
		}
		prev, first, ok := uint64(0), true, true
		s.RangeScan(uint64(q), uint64(q)+1000, func(k core.Key, v core.Value) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			first, prev = false, k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFullRangeBoundary(t *testing.T) {
	s := loaded(t, 100, 1<<20)
	n := s.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return true })
	if n != 100 {
		t.Fatalf("full scan emitted %d", n)
	}
}
