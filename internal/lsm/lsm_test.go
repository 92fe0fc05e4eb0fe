package lsm

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 32)
	return New(pool, cfg)
}

func TestEmpty(t *testing.T) {
	tr := newTestTree(t, Config{})
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty returned ok")
	}
	if n := tr.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return true }); n != 0 {
		t.Fatalf("scan emitted %d", n)
	}
}

func TestInsertGetAcrossFlushes(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4})
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Flushes == 0 {
		t.Fatal("no memtable flushes for 5000 inserts at threshold 64")
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tr.Get(k)
		if !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tr.Get(n + 5); ok {
		t.Fatal("found absent key")
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestUpdateShadowsOldVersion(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 32, SizeRatio: 3})
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 500; k++ {
		if !tr.Update(k, 2) {
			t.Fatal("update returned false")
		}
	}
	for k := uint64(0); k < 500; k++ {
		v, ok := tr.Get(k)
		if !ok || v != 2 {
			t.Fatalf("Get(%d) = %d,%v after update", k, v, ok)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 32, SizeRatio: 3})
	for k := uint64(0); k < 1000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 1000; k += 2 {
		tr.Delete(k)
	}
	// Force everything through at least one flush.
	tr.Flush()
	for k := uint64(0); k < 1000; k++ {
		_, ok := tr.Get(k)
		want := k%2 == 1
		if ok != want {
			t.Fatalf("Get(%d) ok=%v want %v", k, ok, want)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len=%d want 500", tr.Len())
	}
}

func TestRangeScanMergesVersions(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 16, SizeRatio: 2})
	for k := uint64(0); k < 300; k++ {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(100); k < 200; k++ {
		tr.Update(k, 9)
	}
	for k := uint64(250); k < 300; k++ {
		tr.Delete(k)
	}
	var keys []uint64
	n := tr.RangeScan(50, 299, func(k core.Key, v core.Value) bool {
		keys = append(keys, k)
		want := core.Value(1)
		if k >= 100 && k < 200 {
			want = 9
		}
		if v != want {
			t.Fatalf("key %d: value %d want %d", k, v, want)
		}
		return true
	})
	if n != 200 { // 50..249
		t.Fatalf("scan emitted %d, want 200", n)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan not ascending at %d", i)
		}
	}
}

func TestTieringVsLevelingRunCounts(t *testing.T) {
	level := newTestTree(t, Config{MemtableRecords: 32, SizeRatio: 4})
	tier := newTestTree(t, Config{MemtableRecords: 32, SizeRatio: 4, Tiering: true})
	for k := uint64(0); k < 4000; k++ {
		if err := level.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if err := tier.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Leveling keeps at most one run per level.
	for i, lv := range level.levels {
		if len(lv) > 1 {
			t.Fatalf("leveling: level %d has %d runs", i, len(lv))
		}
	}
	// Tiering accumulates runs, so it must hold at least as many.
	if tier.Runs() < level.Runs() {
		t.Fatalf("tiering runs %d < leveling runs %d", tier.Runs(), level.Runs())
	}
	// Both must still answer correctly.
	for k := uint64(0); k < 4000; k += 97 {
		if v, ok := level.Get(k); !ok || v != k {
			t.Fatalf("leveling Get(%d)=%d,%v", k, v, ok)
		}
		if v, ok := tier.Get(k); !ok || v != k {
			t.Fatalf("tiering Get(%d)=%d,%v", k, v, ok)
		}
	}
}

func TestWriteAmpLevelingAboveTiering(t *testing.T) {
	level := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 3})
	tier := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 3, Tiering: true})
	for k := uint64(0); k < 20000; k++ {
		if err := level.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if err := tier.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	level.Flush()
	tier.Flush()
	lw := level.Meter().PhysicalWritten()
	tw := tier.Meter().PhysicalWritten()
	if tw >= lw {
		t.Fatalf("tiering should write less: tiering=%d leveling=%d", tw, lw)
	}
}

func TestBloomFilterCutsReadsForMisses(t *testing.T) {
	with := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4, BloomBitsPerKey: 10})
	without := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4})
	for k := uint64(0); k < 10000; k += 2 {
		if err := with.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if err := without.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	with.Flush()
	without.Flush()
	wb := with.Meter().Snapshot()
	wob := without.Meter().Snapshot()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(10000))*2 + 1 // always a miss
		with.Get(k)
		without.Get(k)
	}
	wd := with.Meter().Diff(wb)
	wod := without.Meter().Diff(wob)
	if wd.BaseRead >= wod.BaseRead {
		t.Fatalf("bloom should cut page reads on misses: with=%d without=%d", wd.BaseRead, wod.BaseRead)
	}
}

func TestBulkLoad(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4, BloomBitsPerKey: 8})
	recs := make([]core.Record, 3000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 2), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := 0; i < 3000; i += 113 {
		v, ok := tr.Get(uint64(i * 2))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d)=%d,%v", i*2, v, ok)
		}
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("found absent odd key")
	}
	// Keep inserting on top of the bulk-loaded bottom level.
	for k := uint64(1); k < 2000; k += 2 {
		if err := tr.Insert(k, 7); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tr.Get(999); !ok || v != 7 {
		t.Fatalf("Get(999)=%d,%v", v, ok)
	}
}

func TestTombstoneValueRejected(t *testing.T) {
	tr := newTestTree(t, Config{})
	if err := tr.Insert(1, Tombstone); err == nil {
		t.Fatal("tombstone value accepted by Insert")
	}
	if tr.Update(1, Tombstone) {
		t.Fatal("tombstone value accepted by Update")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, Config{MemtableRecords: 48, SizeRatio: 3, BloomBitsPerKey: 8})
	ref := make(map[uint64]uint64)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put (insert or overwrite; LSM blind-writes)
			v := uint64(rng.Int63())
			if _, ok := ref[k]; ok {
				tr.Update(k, v)
			} else {
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
			}
			ref[k] = v
		case 4, 5: // delete only live keys (blind-delete contract)
			if _, ok := ref[k]; ok {
				tr.Delete(k)
				delete(ref, k)
			}
		default: // get
			v, ok := tr.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d)=%d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len=%d ref=%d", tr.Len(), len(ref))
	}
	got := 0
	tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		if ref[k] != v {
			t.Fatalf("scan key %d: %d want %d", k, v, ref[k])
		}
		got++
		return true
	})
	if got != len(ref) {
		t.Fatalf("scan emitted %d want %d", got, len(ref))
	}
}

// TestFaultToleranceOnReads: run-page read failures surface as misses and
// clear once the device recovers.
func TestFaultToleranceOnReads(t *testing.T) {
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 2)
	tr := New(pool, Config{MemtableRecords: 64, SizeRatio: 4})
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	dev.SetInjector(faults.New(faults.Plan{Seed: 7, PRead: 0.5}))
	misses := 0
	for k := uint64(0); k < 10; k++ {
		if _, ok := tr.Get(k * 150); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("injected fault never surfaced")
	}
	dev.SetInjector(nil)
	for k := uint64(0); k < 2000; k += 137 {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("post-fault Get(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestFencePruningOnRanges: a narrow range over a large bulk-loaded run must
// read only the overlapping pages, not the whole run.
func TestFencePruningOnRanges(t *testing.T) {
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 2)
	tr := New(pool, Config{MemtableRecords: 64, SizeRatio: 4})
	recs := make([]core.Record, 1<<14)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	before := tr.Meter().Snapshot()
	n := tr.RangeScan(1000, 1030, func(core.Key, core.Value) bool { return true })
	if n != 31 {
		t.Fatalf("emitted %d", n)
	}
	read := tr.Meter().Diff(before).BaseRead
	full := uint64(len(recs) * core.RecordSize)
	if read > full/20 {
		t.Fatalf("narrow range read %d of %d run bytes: fences not pruning", read, full)
	}
}

// TestSizeIncludesFiltersAndFences: auxiliary bytes must grow when filters
// are enabled.
func TestSizeIncludesFiltersAndFences(t *testing.T) {
	with := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4, BloomBitsPerKey: 12})
	without := newTestTree(t, Config{MemtableRecords: 64, SizeRatio: 4})
	recs := make([]core.Record, 4096)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := with.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := without.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if with.Size().AuxBytes <= without.Size().AuxBytes {
		t.Fatalf("filters not accounted: %d vs %d", with.Size().AuxBytes, without.Size().AuxBytes)
	}
}
