package hashindex

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

func newIndex(t *testing.T, pageSize, poolPages int, cfg Config) *Index {
	t.Helper()
	dev := storage.NewDevice(pageSize, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, poolPages)
	x, err := New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestBasicOps(t *testing.T) {
	x := newIndex(t, 256, 16, Config{})
	if _, ok := x.Get(1); ok {
		t.Fatal("get on empty")
	}
	if err := x.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if v, ok := x.Get(1); !ok || v != 10 {
		t.Fatalf("Get: %d %v", v, ok)
	}
	if err := x.Insert(1, 11); err != core.ErrKeyExists {
		t.Fatalf("dup insert: %v", err)
	}
	if !x.Update(1, 12) {
		t.Fatal("update")
	}
	if v, _ := x.Get(1); v != 12 {
		t.Fatal("update not applied")
	}
	if !x.Delete(1) {
		t.Fatal("delete")
	}
	if x.Delete(1) {
		t.Fatal("double delete")
	}
	if x.Len() != 0 {
		t.Fatalf("len %d", x.Len())
	}
}

func TestGrowthPreservesData(t *testing.T) {
	x := newIndex(t, 256, 16, Config{InitialBuckets: 2})
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := x.Insert(k, k*2); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if len(x.dir) <= 2 {
		t.Fatalf("directory never grew: %d", len(x.dir))
	}
	for k := uint64(0); k < n; k++ {
		v, ok := x.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) after growth = %d,%v", k, v, ok)
		}
	}
	if _, ok := x.Get(n + 1); ok {
		t.Fatal("phantom key after growth")
	}
}

func TestOverflowChains(t *testing.T) {
	// Tiny pages + one bucket + huge load factor force chains.
	x := newIndex(t, 64, 16, Config{InitialBuckets: 1, MaxLoad: 1000})
	perPage := (64 - headerSize) / entrySize
	n := uint64(perPage*5 + 1)
	for k := uint64(0); k < n; k++ {
		if err := x.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if x.pages < 5 {
		t.Fatalf("expected overflow pages, have %d", x.pages)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := x.Get(k); !ok || v != k {
			t.Fatalf("chained Get(%d)", k)
		}
	}
	// Delete from the middle of a chain.
	if !x.Delete(n / 2) {
		t.Fatal("chain delete")
	}
	if _, ok := x.Get(n / 2); ok {
		t.Fatal("deleted key still found")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	x := newIndex(t, 256, 8, Config{})
	rng := rand.New(rand.NewSource(5))
	ref := map[uint64]uint64{}
	for i := 0; i < 15000; i++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(4) {
		case 0:
			err := x.Insert(k, k+1)
			if _, ok := ref[k]; ok {
				if err != core.ErrKeyExists {
					t.Fatalf("op %d: dup insert err=%v", i, err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				ref[k] = k + 1
			}
		case 1:
			v, ok := x.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2:
			nv := rng.Uint64()
			if x.Update(k, nv) {
				ref[k] = nv
			}
		case 3:
			if x.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
				t.Fatalf("op %d: delete(%d)", i, k)
			}
			delete(ref, k)
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len %d want %d", i, x.Len(), len(ref))
		}
	}
	// Full scan must see exactly the reference contents.
	got := map[uint64]uint64{}
	x.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("scan %d keys want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("scan[%d] = %d want %d", k, got[k], v)
		}
	}
}

func TestRangeScanBoundsAndStop(t *testing.T) {
	x := newIndex(t, 256, 16, Config{})
	for k := uint64(0); k < 500; k++ {
		if err := x.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := x.RangeScan(100, 199, func(k core.Key, v core.Value) bool {
		if k < 100 || k > 199 {
			t.Fatalf("out of range key %d", k)
		}
		return true
	})
	if n != 100 {
		t.Fatalf("emitted %d", n)
	}
	if n := x.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return false }); n != 1 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestBulkLoadSizesDirectory(t *testing.T) {
	x := newIndex(t, 256, 32, Config{})
	recs := make([]core.Record, 8000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := x.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 8000 {
		t.Fatalf("len %d", x.Len())
	}
	if x.loadFactor() > x.cfg.MaxLoad*1.01 {
		t.Fatalf("bulk load overloaded: %v", x.loadFactor())
	}
	for i := 0; i < 8000; i += 97 {
		if v, ok := x.Get(uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("Get(%d)", i)
		}
	}
}

func TestPointQueryCostIsConstant(t *testing.T) {
	// The defining property: point-query page reads do not grow with N.
	cost := func(n int) float64 {
		meter := &rum.Meter{}
		dev := storage.NewDevice(256, storage.SSD, meter)
		pool := storage.NewBufferPool(dev, 2) // effectively cold
		x, err := New(pool, Config{})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]core.Record, n)
		for i := range recs {
			recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
		}
		if err := x.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		pool.FlushAll()
		before := meter.Snapshot()
		rng := rand.New(rand.NewSource(1))
		const q = 200
		for i := 0; i < q; i++ {
			x.Get(uint64(rng.Intn(n)))
		}
		return float64(meter.Diff(before).PhysicalRead()) / q
	}
	small, large := cost(1000), cost(16000)
	if large > small*1.5 {
		t.Fatalf("point cost grew with N: %v -> %v", small, large)
	}
}

func TestSizeAccountsDirectoryAndSlack(t *testing.T) {
	x := newIndex(t, 256, 16, Config{})
	for k := uint64(0); k < 100; k++ {
		if err := x.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	s := x.Size()
	if s.BaseBytes != 100*core.RecordSize {
		t.Fatalf("base bytes %d", s.BaseBytes)
	}
	if s.AuxBytes == 0 {
		t.Fatal("no aux bytes for bucket slack + directory")
	}
	if s.SpaceAmplification() <= 1 {
		t.Fatal("hash must have MO > 1")
	}
}
