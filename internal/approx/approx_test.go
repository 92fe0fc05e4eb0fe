package approx

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/zonemap"
)

func TestBasicOps(t *testing.T) {
	tr := New(Config{Partition: 16}, nil)
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
	if tr.Update(2, 0) {
		t.Fatal("phantom update")
	}
	if !tr.Delete(1) {
		t.Fatal("delete")
	}
	if tr.Delete(1) || tr.Len() != 0 {
		t.Fatal("state after delete")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	tr := New(Config{Partition: 32}, nil)
	rng := rand.New(rand.NewSource(6))
	ref := map[uint64]uint64{}
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(2500))
		switch rng.Intn(4) {
		case 0:
			err := tr.Insert(k, k*3)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency on %d: %v", i, k, err)
			}
			if err == nil {
				ref[k] = k * 3
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
				t.Fatalf("op %d: missed update of %d", i, k)
			}
		case 3:
			_, want := ref[k]
			if tr.Delete(k) != want {
				t.Fatalf("op %d: delete(%d) want %v", i, k, want)
			}
			delete(ref, k)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: len %d want %d", i, tr.Len(), len(ref))
		}
	}
	got := map[uint64]uint64{}
	tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("scan %d want %d", len(got), len(ref))
	}
}

// TestFiltersPruneMisses: the defining win over a plain zone map — point
// misses inside a zone's key range skip the partition scan.
func TestFiltersPruneMisses(t *testing.T) {
	tr := New(Config{Partition: 256, FingerprintBits: 20}, nil)
	zm := zonemap.New(256, nil)
	recs := make([]core.Record, 1<<14)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 4), Value: uint64(i)} // gaps of 3
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := zm.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	t0, z0 := tr.Meter().Snapshot(), zm.Meter().Snapshot()
	rng := rand.New(rand.NewSource(2))
	const probes = 2000
	falseHits := 0
	for i := 0; i < probes; i++ {
		k := uint64(rng.Intn(1<<14))*4 + 1 + uint64(rng.Intn(3)) // always a miss, in range
		falseHits += scannedMiss(t, tr, k)
		zm.Get(k)
	}
	trBase := tr.Meter().Diff(t0).BaseRead
	zmBase := zm.Meter().Diff(z0).BaseRead
	if trBase*5 > zmBase {
		t.Fatalf("filters should prune miss scans: approx=%d zonemap=%d", trBase, zmBase)
	}
	if tr.FilterSkips() < probes/2 {
		t.Fatalf("filters skipped only %d of %d misses", tr.FilterSkips(), probes)
	}
	// False positives exist but are rare at 20-bit fingerprints.
	if falseHits > probes/20 {
		t.Fatalf("too many false hits: %d", falseHits)
	}
}

// scannedMiss probes tr for a key it does not hold and returns 1 when the
// probe scanned a zone — a filter false positive, since only a filter's
// maybe reads base data on a miss — and 0 when the filter skipped the scan.
func scannedMiss(t *testing.T, tr *Tree, k core.Key) int {
	t.Helper()
	before := tr.Meter().BaseRead
	if _, ok := tr.Get(k); ok {
		t.Fatalf("phantom hit on %d", k)
	}
	if tr.Meter().BaseRead > before {
		return 1
	}
	return 0
}

// TestUpdatability: unlike a static Bloom filter, deletes shrink the filter
// so re-probing a deleted key skips the scan again.
func TestUpdatability(t *testing.T) {
	tr := New(Config{Partition: 64, FingerprintBits: 20}, nil)
	for k := uint64(0); k < 512; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 512; k += 2 {
		if !tr.Delete(k) {
			t.Fatal("delete")
		}
	}
	skipsBefore := tr.FilterSkips()
	for k := uint64(0); k < 512; k += 2 {
		if _, ok := tr.Get(k); ok {
			t.Fatal("deleted key found")
		}
	}
	// The filters absorbed the deletes: most re-probes skip the zone scan.
	if tr.FilterSkips()-skipsBefore < 200 {
		t.Fatalf("deleted keys not pruned: %d skips", tr.FilterSkips()-skipsBefore)
	}
	// Odd keys survive.
	for k := uint64(1); k < 512; k += 2 {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("Get(%d)", k)
		}
	}
}

func TestMoreFingerprintBitsMoreSpaceFewerFalseHits(t *testing.T) {
	run := func(bits uint) (int, uint64) {
		tr := New(Config{Partition: 256, FingerprintBits: bits}, nil)
		recs := make([]core.Record, 1<<13)
		for i := range recs {
			recs[i] = core.Record{Key: uint64(i * 8), Value: uint64(i)}
		}
		if err := tr.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		falseHits := 0
		for i := 0; i < 3000; i++ {
			falseHits += scannedMiss(t, tr, uint64(rng.Intn(1<<13))*8+3)
		}
		return falseHits, tr.Size().AuxBytes
	}
	looseFP, looseAux := run(12)
	tightFP, tightAux := run(24)
	if tightAux <= looseAux {
		t.Fatalf("more bits should cost more space: %d vs %d", tightAux, looseAux)
	}
	if tightFP > looseFP {
		t.Fatalf("more bits should cut false hits: %d vs %d", tightFP, looseFP)
	}
}

func TestRangeScanOrdered(t *testing.T) {
	tr := New(Config{Partition: 32}, nil)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		_ = tr.Insert(uint64(rng.Intn(10000)), uint64(i))
	}
	prev, first := uint64(0), true
	tr.RangeScan(100, 9000, func(k core.Key, v core.Value) bool {
		if k < 100 || k > 9000 {
			t.Fatalf("out of range %d", k)
		}
		if !first && k <= prev {
			t.Fatal("not ascending")
		}
		first, prev = false, k
		return true
	})
}

func TestSizeAccountsFilters(t *testing.T) {
	tr := New(Config{Partition: 64}, nil)
	zm := zonemap.New(64, nil)
	recs := make([]core.Record, 4096)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := zm.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if tr.Size().AuxBytes <= zm.Size().AuxBytes {
		t.Fatal("filters must cost space beyond the plain zone map")
	}
	if tr.Size().SpaceAmplification() > 2 {
		t.Fatalf("filters too expensive: MO %v", tr.Size().SpaceAmplification())
	}
}
