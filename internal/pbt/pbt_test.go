package pbt

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/storage"
)

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 32)
	tr, err := New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBasicOps(t *testing.T) {
	tr := newTree(t, Config{})
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

func TestSealingAndMerging(t *testing.T) {
	tr := newTree(t, Config{PartitionRecords: 64, MergeFanIn: 3})
	const n = 1000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	if tr.main == nil {
		t.Fatal("no partition was sealed and merged")
	}
	// Merging bounds the partition count.
	if len(tr.partitions()) > 3+2 {
		t.Fatalf("%d partitions", len(tr.partitions()))
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tr.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestCrossPartitionSemantics(t *testing.T) {
	tr := newTree(t, Config{PartitionRecords: 32, MergeFanIn: 100}) // no merges
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.partitions()) < 4 {
		t.Fatalf("expected sealed partitions, have %d", len(tr.partitions()))
	}
	// Duplicate of a key now living in a sealed partition must be rejected.
	if err := tr.Insert(5, 9); err != core.ErrKeyExists {
		t.Fatalf("cross-partition dup: %v", err)
	}
	// Update and delete must reach sealed partitions.
	if !tr.Update(5, 99) {
		t.Fatal("cross-partition update")
	}
	if v, _ := tr.Get(5); v != 99 {
		t.Fatal("update not visible")
	}
	if !tr.Delete(5) {
		t.Fatal("cross-partition delete")
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("deleted key visible")
	}
	// Re-insert after delete works (no tombstone shadowing).
	if err := tr.Insert(5, 7); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if v, _ := tr.Get(5); v != 7 {
		t.Fatal("reinsert value")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	tr := newTree(t, Config{PartitionRecords: 48, MergeFanIn: 3})
	rng := rand.New(rand.NewSource(9))
	ref := map[uint64]uint64{}
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(5) {
		case 0:
			err := tr.Insert(k, k)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency on %d: %v", i, k, err)
			}
			if err == nil {
				ref[k] = k
			}
		case 1:
			v, ok := tr.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2:
			nv := rng.Uint64()
			if tr.Update(k, nv) {
				if _, ok := ref[k]; !ok {
					t.Fatalf("op %d: phantom update", i)
				}
				ref[k] = nv
			} else if _, ok := ref[k]; ok {
				t.Fatalf("op %d: missed update", i)
			}
		case 3:
			_, want := ref[k]
			if tr.Delete(k) != want {
				t.Fatalf("op %d: delete(%d)", i, k)
			}
			delete(ref, k)
		case 4:
			lo := uint64(rng.Intn(2000))
			hi := lo + uint64(rng.Intn(150))
			want := 0
			for rk := range ref {
				if rk >= lo && rk <= hi {
					want++
				}
			}
			prev, first := uint64(0), true
			got := tr.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
				if !first && k <= prev {
					t.Fatalf("op %d: scan not ascending", i)
				}
				first, prev = false, k
				if ref[k] != v {
					t.Fatalf("op %d: scan value", i)
				}
				return true
			})
			if got != want {
				t.Fatalf("op %d: range emitted %d want %d", i, got, want)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: len %d want %d", i, tr.Len(), len(ref))
		}
	}
}

// TestWriteOptimization: per-insert page writes must undercut a single
// plain B-tree of the same total size (the structure's reason to exist).
func TestWriteOptimization(t *testing.T) {
	devP := storage.NewDevice(4096, storage.SSD, nil)
	poolP := storage.NewBufferPool(devP, 8)
	p, err := New(poolP, Config{PartitionRecords: 2048, MergeFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	devB := storage.NewDevice(4096, storage.SSD, nil)
	poolB := storage.NewBufferPool(devB, 8)
	b, err := btree.New(poolB, btree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	for i := 0; i < n; i++ {
		k := rng.Uint64() >> 20
		_ = p.Insert(k, 1)
		_ = b.Insert(k, 1)
	}
	p.Flush()
	b.Flush()
	pw := devP.Stats().PageWrites
	bw := devB.Stats().PageWrites
	if pw >= bw {
		t.Fatalf("pbt should write fewer pages: pbt=%d btree=%d", pw, bw)
	}
}

func TestBulkLoad(t *testing.T) {
	tr := newTree(t, Config{PartitionRecords: 64})
	recs := make([]core.Record, 2000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 2), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("len %d", tr.Len())
	}
	// Layer inserts on top of the bulk.
	for k := uint64(1); k < 500; k += 2 {
		if err := tr.Insert(k, 7); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tr.Get(3); !ok || v != 7 {
		t.Fatal("layered insert")
	}
	if v, ok := tr.Get(4); !ok || v != 2 {
		t.Fatal("bulk record")
	}
}

func TestAccessorsAndEarlyStop(t *testing.T) {
	tr := newTree(t, Config{PartitionRecords: 32, MergeFanIn: 100})
	if tr.Name() == "" || tr.Pool() == nil || tr.Meter() == nil {
		t.Fatal("accessors")
	}
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if n := tr.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return false }); n != 1 {
		t.Fatalf("early stop emitted %d", n)
	}
	s := tr.Size()
	if s.BaseBytes != 100*core.RecordSize || s.AuxBytes == 0 {
		t.Fatalf("size %+v", s)
	}
}
