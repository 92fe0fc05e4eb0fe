package skiplist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestBasicOps(t *testing.T) {
	l := New(1, 0.5, nil)
	if _, ok := l.Get(1); ok {
		t.Fatal("get on empty")
	}
	if err := l.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(1, 11); err != core.ErrKeyExists {
		t.Fatalf("dup: %v", err)
	}
	if v, ok := l.Get(1); !ok || v != 10 {
		t.Fatal("get")
	}
	if !l.Update(1, 20) {
		t.Fatal("update")
	}
	if l.Update(2, 0) {
		t.Fatal("phantom update")
	}
	if !l.Delete(1) {
		t.Fatal("delete")
	}
	if l.Delete(1) {
		t.Fatal("double delete")
	}
	if l.Len() != 0 {
		t.Fatal("len")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	l := New(2, 0.5, nil)
	rng := rand.New(rand.NewSource(6))
	ref := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(4000))
		switch rng.Intn(4) {
		case 0:
			err := l.Insert(k, k)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency", i)
			}
			if err == nil {
				ref[k] = k
			}
		case 1:
			v, ok := l.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: get(%d)", i, k)
			}
		case 2:
			nv := rng.Uint64()
			if l.Update(k, nv) {
				ref[k] = nv
			}
		case 3:
			if got, want := l.Delete(k), mapHas(ref, k); got != want {
				t.Fatalf("op %d: delete", i)
			}
			delete(ref, k)
		}
		if l.Len() != len(ref) {
			t.Fatalf("op %d: len", i)
		}
	}
}

func mapHas(m map[uint64]uint64, k uint64) bool { _, ok := m[k]; return ok }

func TestAscendingOrderProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		l := New(3, 0.5, nil)
		for _, k := range keys {
			_ = l.Insert(k, k)
		}
		prev, first, ok := uint64(0), true, true
		l.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			first, prev = false, k
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutShadowsAndCounts(t *testing.T) {
	l := New(4, 0.5, nil)
	if l.Put(9, 1) {
		t.Fatal("put of fresh key reported existing")
	}
	if !l.Put(9, 2) {
		t.Fatal("put of existing key reported fresh")
	}
	if v, _ := l.Get(9); v != 2 {
		t.Fatal("put did not overwrite")
	}
	if l.Len() != 1 {
		t.Fatalf("len %d", l.Len())
	}
}

func TestRangeScanBounds(t *testing.T) {
	l := New(5, 0.5, nil)
	for k := uint64(0); k < 100; k += 2 {
		if err := l.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := l.RangeScan(10, 20, func(k core.Key, v core.Value) bool {
		if k < 10 || k > 20 {
			t.Fatalf("out of range %d", k)
		}
		return true
	})
	if n != 6 { // 10,12,14,16,18,20
		t.Fatalf("emitted %d", n)
	}
}

func TestAscendFrom(t *testing.T) {
	l := New(6, 0.5, nil)
	for k := uint64(0); k < 50; k++ {
		if err := l.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	l.Ascend(40, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 40 {
		t.Fatalf("ascend: %v", got)
	}
}

func TestReset(t *testing.T) {
	l := New(7, 0.5, nil)
	for k := uint64(0); k < 100; k++ {
		if err := l.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("len after reset")
	}
	if _, ok := l.Get(5); ok {
		t.Fatal("data survived reset")
	}
	if err := l.Insert(5, 5); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoad(t *testing.T) {
	l := New(8, 0.5, nil)
	recs := make([]core.Record, 500)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i * 2)}
	}
	if err := l.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 500 {
		t.Fatal("len")
	}
	if v, ok := l.Get(250); !ok || v != 500 {
		t.Fatal("get after bulk")
	}
}

func TestDeterministicTowers(t *testing.T) {
	a, b := New(9, 0.5, nil), New(9, 0.5, nil)
	for k := uint64(0); k < 1000; k++ {
		_ = a.Insert(k, k)
		_ = b.Insert(k, k)
	}
	if a.Size() != b.Size() {
		t.Fatal("same seed produced different towers")
	}
}

// TestHigherPLowersSearchCost: the Section-5 tunability claim for the
// skiplist — more pointers (higher p, higher MO) buy shorter searches.
func TestHigherPLowersSearchCost(t *testing.T) {
	cost := func(p float64) (reads uint64, aux uint64) {
		l := New(10, p, nil)
		for k := uint64(0); k < 20000; k++ {
			_ = l.Insert(k*7, k)
		}
		m0 := l.Meter().Snapshot()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			l.Get(uint64(rng.Intn(20000)) * 7)
		}
		return l.Meter().Diff(m0).PhysicalRead(), l.Size().AuxBytes
	}
	lowReads, lowAux := cost(0.1)
	highReads, highAux := cost(0.5)
	if highAux <= lowAux {
		t.Fatalf("higher p should store more pointers: %d vs %d", highAux, lowAux)
	}
	if highReads >= lowReads {
		t.Fatalf("higher p should read less: %d vs %d", highReads, lowReads)
	}
}
