package zonemap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestBasicOps(t *testing.T) {
	m := New(8, nil)
	if _, ok := m.Get(1); ok {
		t.Fatal("get on empty")
	}
	if err := m.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(1, 11); err != core.ErrKeyExists {
		t.Fatalf("dup: %v", err)
	}
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatal("get")
	}
	if !m.Update(1, 20) {
		t.Fatal("update")
	}
	if m.Update(2, 0) {
		t.Fatal("phantom update")
	}
	if !m.Delete(1) {
		t.Fatal("delete")
	}
	if m.Delete(1) || m.Len() != 0 {
		t.Fatal("state after delete")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	m := New(16, nil)
	rng := rand.New(rand.NewSource(8))
	ref := map[uint64]uint64{}
	for i := 0; i < 12000; i++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(4) {
		case 0:
			err := m.Insert(k, k*2)
			if _, ok := ref[k]; ok != (err == core.ErrKeyExists) {
				t.Fatalf("op %d: insert consistency on %d (err=%v)", i, k, err)
			}
			if err == nil {
				ref[k] = k * 2
			}
		case 1:
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2:
			nv := rng.Uint64()
			if m.Update(k, nv) {
				ref[k] = nv
			}
		case 3:
			_, want := ref[k]
			if m.Delete(k) != want {
				t.Fatalf("op %d: delete(%d)", i, k)
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: len %d want %d", i, m.Len(), len(ref))
		}
	}
	got := map[uint64]uint64{}
	m.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("scan %d want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("scan[%d]", k)
		}
	}
}

func TestZonesStayDisjointProperty(t *testing.T) {
	f := func(keys []uint32) bool {
		m := New(4, nil)
		for _, k := range keys {
			_ = m.Insert(uint64(k), 1)
		}
		// Zones must be sorted by min and non-overlapping.
		for i := 1; i < len(m.zones); i++ {
			if m.zones[i].min <= m.zones[i-1].max {
				return false
			}
		}
		// Every record must lie inside its zone bounds.
		for _, z := range m.zones {
			for _, r := range z.recs {
				if r.Key < z.min || r.Key > z.max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScanOrderedAndBounded(t *testing.T) {
	m := New(8, nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		_ = m.Insert(uint64(rng.Intn(10000)), uint64(i))
	}
	prev, first := uint64(0), true
	m.RangeScan(2000, 8000, func(k core.Key, v core.Value) bool {
		if k < 2000 || k > 8000 {
			t.Fatalf("out of range %d", k)
		}
		if !first && k <= prev {
			t.Fatal("not ascending")
		}
		first, prev = false, k
		return true
	})
}

func TestPruningSavesReads(t *testing.T) {
	m := New(128, nil)
	recs := make([]core.Record, 1<<14)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := m.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	m0 := m.Meter().Snapshot()
	m.RangeScan(1000, 1100, func(core.Key, core.Value) bool { return true })
	read := m.Meter().Diff(m0).PhysicalRead()
	full := uint64(len(recs) * core.RecordSize)
	if read > full/10 {
		t.Fatalf("pruned scan read %d of %d", read, full)
	}
	// Point-query pruning on an absent key outside every zone bound.
	m0 = m.Meter().Snapshot()
	if _, ok := m.Get(1 << 40); ok {
		t.Fatal("phantom get")
	}
	if read := m.Meter().Diff(m0).BaseRead; read != 0 {
		t.Fatalf("out-of-bounds get read %d base bytes", read)
	}
}

func TestSmallerPargerIndexTradeoff(t *testing.T) {
	fine := New(16, nil)
	coarse := New(1024, nil)
	recs := make([]core.Record, 1<<13)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := fine.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := coarse.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Finer partitions: bigger index, smaller per-query base reads.
	if fine.Size().AuxBytes <= coarse.Size().AuxBytes {
		t.Fatal("finer partitions should cost more index space")
	}
	f0, c0 := fine.Meter().Snapshot(), coarse.Meter().Snapshot()
	for k := uint64(0); k < 100; k++ {
		fine.Get(k * 80)
		coarse.Get(k * 80)
	}
	fineBase := fine.Meter().Diff(f0).BaseRead
	coarseBase := coarse.Meter().Diff(c0).BaseRead
	if fineBase >= coarseBase {
		t.Fatalf("finer partitions should read less base data: %d vs %d", fineBase, coarseBase)
	}
}

func TestSplitMaintainsLookup(t *testing.T) {
	zones := map[int]int{}
	for _, tc := range []struct{ partition, keys, minZones int }{
		{partition: 4, keys: 500, minZones: 10}, // tiny partitions split often
		{partition: 8, keys: 300, minZones: 2},
		{partition: 64, keys: 300, minZones: 1},
	} {
		m := New(tc.partition, nil)
		for k := uint64(0); k < uint64(tc.keys); k++ {
			if err := m.Insert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if len(m.zones) < tc.minZones {
			t.Fatalf("partition %d: expected at least %d zones, got %d", tc.partition, tc.minZones, len(m.zones))
		}
		for k := uint64(0); k < uint64(tc.keys); k++ {
			if v, ok := m.Get(k); !ok || v != k+1 {
				t.Fatalf("partition %d: Get(%d) after splits", tc.partition, k)
			}
		}
		zones[tc.partition] = len(m.zones)
	}
	// The same 300 records make fewer zones under coarser partitions.
	if zones[64] >= zones[8] {
		t.Fatalf("coarser partitions should mean fewer zones: %d at 8, %d at 64", zones[8], zones[64])
	}
}

func TestBulkLoadPacksExactly(t *testing.T) {
	m := New(100, nil)
	recs := make([]core.Record, 1000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := m.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if len(m.zones) != 10 {
		t.Fatalf("zones %d", len(m.zones))
	}
	if m.Size().SpaceAmplification() > 1.02 {
		t.Fatalf("MO %v", m.Size().SpaceAmplification())
	}
}
