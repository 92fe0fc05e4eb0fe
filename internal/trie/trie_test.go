package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func newTrie(t *testing.T, stride uint) *Trie {
	t.Helper()
	tr, err := New(stride, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(7, nil); err == nil {
		t.Fatal("stride 7 accepted (does not divide 64)")
	}
	if _, err := New(32, nil); err == nil {
		t.Fatal("stride 32 accepted (too wide)")
	}
	if tr, err := New(0, nil); err != nil || tr.stride != 8 {
		t.Fatal("default stride")
	}
}

func TestBasicOps(t *testing.T) {
	tr := newTrie(t, 8)
	if _, ok := tr.Get(1); ok {
		t.Fatal("get on empty")
	}
	if err := tr.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 11); err != core.ErrKeyExists {
		t.Fatalf("dup: %v", err)
	}
	if v, ok := tr.Get(1); !ok || v != 10 {
		t.Fatal("get")
	}
	if !tr.Update(1, 20) {
		t.Fatal("update")
	}
	if !tr.Delete(1) {
		t.Fatal("delete")
	}
	if tr.Delete(1) || tr.Len() != 0 {
		t.Fatal("state after delete")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	for _, stride := range []uint{4, 8} {
		tr := newTrie(t, stride)
		rng := rand.New(rand.NewSource(int64(stride)))
		ref := map[uint64]uint64{}
		for i := 0; i < 6000; i++ {
			k := uint64(rng.Int63()) // full 63-bit keys
			if rng.Intn(2) == 0 && len(ref) > 0 {
				// Revisit an existing key half the time.
				for kk := range ref {
					k = kk
					break
				}
			}
			switch rng.Intn(4) {
			case 0:
				err := tr.Insert(k, k)
				if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
					t.Fatalf("stride %d: insert consistency", stride)
				}
				if err == nil {
					ref[k] = k
				}
			case 1:
				v, ok := tr.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("stride %d: get", stride)
				}
			case 2:
				if tr.Update(k, 99) {
					ref[k] = 99
				}
			case 3:
				_, want := ref[k]
				if tr.Delete(k) != want {
					t.Fatalf("stride %d: delete", stride)
				}
				delete(ref, k)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("stride %d: len", stride)
			}
		}
	}
}

func TestScanAscendingProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tr, err := New(8, nil)
		if err != nil {
			return false
		}
		for _, k := range keys {
			_ = tr.Insert(k, k)
		}
		prev, first, ok := uint64(0), true, true
		tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			first, prev = false, k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr := newTrie(t, 8)
	for k := uint64(0); k < 1000; k += 3 {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	n := tr.RangeScan(100, 200, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	want := 0
	for k := uint64(0); k < 1000; k += 3 {
		if k >= 100 && k <= 200 {
			want++
		}
	}
	if n != want {
		t.Fatalf("emitted %d want %d (got %v)", n, want, got)
	}
	if n := tr.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return false }); n != 1 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestHighKeysScan(t *testing.T) {
	tr := newTrie(t, 8)
	keys := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63, 1<<63 - 1}
	for _, k := range keys {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got++
		return true
	})
	if got != len(keys) {
		t.Fatalf("scan found %d of %d boundary keys", got, len(keys))
	}
}

func TestDeletePrunesNodes(t *testing.T) {
	tr := newTrie(t, 8)
	base := tr.nodes
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k<<40, k); err != nil { // scattered: private paths
			t.Fatal(err)
		}
	}
	grown := tr.nodes
	if grown <= base {
		t.Fatal("no nodes allocated")
	}
	for k := uint64(0); k < 100; k++ {
		if !tr.Delete(k << 40) {
			t.Fatal("delete")
		}
	}
	if tr.nodes != base {
		t.Fatalf("nodes not pruned: %d -> %d (base %d)", grown, tr.nodes, base)
	}
}

func TestFixedReadCost(t *testing.T) {
	// The trie's defining property: Get cost is independent of N.
	cost := func(n int) uint64 {
		tr, _ := New(8, nil)
		for k := 0; k < n; k++ {
			_ = tr.Insert(uint64(k)*2654435761, uint64(k))
		}
		m0 := tr.Meter().Snapshot()
		for k := 0; k < 100; k++ {
			tr.Get(uint64(k) * 2654435761)
		}
		return tr.Meter().Diff(m0).PhysicalRead()
	}
	small, large := cost(100), cost(10000)
	if small != large {
		t.Fatalf("read cost varied with N: %d vs %d", small, large)
	}
}

func TestWiderStrideLowersReadCost(t *testing.T) {
	cost := func(stride uint) uint64 {
		tr, _ := New(stride, nil)
		for k := uint64(0); k < 2000; k++ {
			_ = tr.Insert(k, k)
		}
		m0 := tr.Meter().Snapshot()
		for k := uint64(0); k < 200; k++ {
			tr.Get(k)
		}
		return tr.Meter().Diff(m0).PhysicalRead()
	}
	if narrow, wide := cost(4), cost(8); wide >= narrow {
		t.Fatalf("wider stride should read less: %d vs %d", wide, narrow)
	}
	// And cost more space (for clustered low keys the wide root array
	// dominates).
	a, _ := New(4, nil)
	b, _ := New(8, nil)
	for k := uint64(0); k < 100; k++ {
		_ = a.Insert(k<<40, k)
		_ = b.Insert(k<<40, k)
	}
	if b.Size().Total() <= a.Size().Total() {
		t.Fatalf("wider stride should cost more space: %d vs %d", b.Size().Total(), a.Size().Total())
	}
}

func TestBulkLoad(t *testing.T) {
	tr := newTrie(t, 8)
	recs := make([]core.Record, 300)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 5), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 300 {
		t.Fatal("len")
	}
	if v, ok := tr.Get(45); !ok || v != 9 {
		t.Fatal("get after bulk")
	}
}
