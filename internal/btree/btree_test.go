package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rum"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, pageSize, poolPages int, cfg Config) *Tree {
	t.Helper()
	dev := storage.NewDevice(pageSize, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, poolPages)
	tr, err := New(pool, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 512, 8, Config{})
	if _, ok := tr.Get(42); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete(42) {
		t.Fatal("Delete on empty tree returned true")
	}
	if tr.Update(42, 1) {
		t.Fatal("Update on empty tree returned true")
	}
	if n := tr.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return true }); n != 0 {
		t.Fatalf("RangeScan on empty tree emitted %d", n)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("Len=%d Height=%d, want 0,1", tr.Len(), tr.Height())
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTestTree(t, 512, 8, Config{})
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := tr.Get(k)
		if !ok || v != k*10 {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, v, ok, k*10)
		}
	}
	if _, ok := tr.Get(100); ok {
		t.Fatal("Get(100) found a missing key")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := newTestTree(t, 512, 8, Config{})
	if err := tr.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(7, 2); err != core.ErrKeyExists {
		t.Fatalf("duplicate insert: got %v, want ErrKeyExists", err)
	}
	if v, _ := tr.Get(7); v != 1 {
		t.Fatalf("value changed by rejected insert: %d", v)
	}
}

// TestRandomizedAgainstMap drives the tree with a random op stream and
// cross-checks every result against a reference map.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := newTestTree(t, 256, 16, Config{}) // tiny pages force deep trees
	ref := make(map[uint64]uint64)

	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(5000))
		switch rng.Intn(4) {
		case 0: // insert
			err := tr.Insert(k, k+1)
			if _, exists := ref[k]; exists {
				if err != core.ErrKeyExists {
					t.Fatalf("op %d: Insert(%d) existing: err=%v", i, k, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: Insert(%d): %v", i, k, err)
				}
				ref[k] = k + 1
			}
		case 1: // get
			v, ok := tr.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", i, k, v, ok, rv, rok)
			}
		case 2: // update
			nv := uint64(rng.Int63())
			ok := tr.Update(k, nv)
			_, rok := ref[k]
			if ok != rok {
				t.Fatalf("op %d: Update(%d) = %v; want %v", i, k, ok, rok)
			}
			if ok {
				ref[k] = nv
			}
		case 3: // delete
			ok := tr.Delete(k)
			_, rok := ref[k]
			if ok != rok {
				t.Fatalf("op %d: Delete(%d) = %v; want %v", i, k, ok, rok)
			}
			delete(ref, k)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d, ref=%d", i, tr.Len(), len(ref))
		}
	}

	// Final full scan must equal the sorted reference contents.
	checkScanMatches(t, tr, ref)
}

func checkScanMatches(t *testing.T, tr *Tree, ref map[uint64]uint64) {
	t.Helper()
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint64
	tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got = append(got, k)
		if v != ref[k] {
			t.Fatalf("scan: value of %d = %d, want %d", k, v, ref[k])
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan emitted %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan order: got[%d]=%d, want %d", i, got[i], want[i])
		}
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr := newTestTree(t, 512, 16, Config{})
	for k := uint64(0); k < 1000; k += 2 { // even keys only
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	n := tr.RangeScan(100, 200, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	if n != len(got) {
		t.Fatalf("count %d != emitted %d", n, len(got))
	}
	if len(got) != 51 || got[0] != 100 || got[50] != 200 {
		t.Fatalf("range [100,200]: got %d keys, first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
	// Early termination.
	n = tr.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return false })
	if n != 1 {
		t.Fatalf("early-terminated scan emitted %d", n)
	}
	// Range with odd (absent) boundaries.
	n = tr.RangeScan(101, 199, nil2(t, 49))
	if n != 49 {
		t.Fatalf("range (101,199): %d", n)
	}
}

func nil2(t *testing.T, max int) func(core.Key, core.Value) bool {
	n := 0
	return func(core.Key, core.Value) bool {
		n++
		if n > max {
			t.Fatalf("emitted more than %d", max)
		}
		return true
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 5000} {
		tr := newTestTree(t, 512, 64, Config{})
		recs := make([]core.Record, n)
		for i := range recs {
			recs[i] = core.Record{Key: uint64(i * 3), Value: uint64(i)}
		}
		if err := tr.BulkLoad(recs); err != nil {
			t.Fatalf("BulkLoad(%d): %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len=%d want %d", tr.Len(), n)
		}
		for i := range recs {
			v, ok := tr.Get(recs[i].Key)
			if !ok || v != recs[i].Value {
				t.Fatalf("n=%d: Get(%d)=%d,%v", n, recs[i].Key, v, ok)
			}
		}
		got := 0
		tr.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
			if k != recs[got].Key {
				t.Fatalf("scan[%d]=%d want %d", got, k, recs[got].Key)
			}
			got++
			return true
		})
		if got != n {
			t.Fatalf("scan emitted %d want %d", got, n)
		}
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	tr := newTestTree(t, 512, 64, Config{BulkFill: 0.7})
	recs := make([]core.Record, 2000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 2), Value: uint64(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Insert the odd keys afterwards.
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(uint64(i*2+1), uint64(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i*2+1, err)
		}
	}
	if tr.Len() != 4000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for k := uint64(0); k < 4000; k++ {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("Get(%d) missing", k)
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	for _, tc := range []struct {
		page, keys, min int
		cfg             Config
	}{
		{page: 256, keys: 10000, min: 2},
		// Fanout 8 over 500 keys needs at least ceil(log_8(500/8)) + 1 levels.
		{page: 512, keys: 500, min: 3, cfg: Config{MaxLeaf: 8}},
	} {
		tr := newTestTree(t, tc.page, 64, tc.cfg)
		for k := uint64(0); k < uint64(tc.keys); k++ {
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Height() < tc.min || tr.Height() > 10 {
			t.Fatalf("implausible height %d for %d keys on %dB pages, %+v", tr.Height(), tc.keys, tc.page, tc.cfg)
		}
	}
}

func TestSizeAccountsSlack(t *testing.T) {
	full := newTestTree(t, 512, 64, Config{BulkFill: 1.0})
	loose := newTestTree(t, 512, 64, Config{BulkFill: 0.5})
	recs := make([]core.Record, 4096)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(i)}
	}
	if err := full.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := loose.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if fa, la := full.Size().SpaceAmplification(), loose.Size().SpaceAmplification(); la <= fa {
		t.Fatalf("fill 0.5 should cost more space: full=%v loose=%v", fa, la)
	}
}

func TestMeterCountsDeviceTraffic(t *testing.T) {
	meter := &rum.Meter{}
	dev := storage.NewDevice(512, storage.SSD, meter)
	pool := storage.NewBufferPool(dev, 4) // tiny pool: forces device traffic
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if meter.PhysicalWritten() == 0 {
		t.Fatal("no physical writes metered")
	}
	before := meter.Snapshot()
	for k := uint64(0); k < 100; k++ {
		tr.Get(k * 13)
	}
	d := meter.Diff(before)
	if d.PhysicalRead() == 0 {
		t.Fatal("no physical reads metered for cold gets")
	}
	if d.BaseRead == 0 || d.AuxRead == 0 {
		t.Fatalf("expected both base (leaf) and aux (internal) reads, got base=%d aux=%d", d.BaseRead, d.AuxRead)
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	tr := newTestTree(t, 512, 16, Config{})
	for k := uint64(0); k < 1000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 1000; k += 2 {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	for k := uint64(0); k < 1000; k += 2 {
		if err := tr.Insert(k, k*7); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok := tr.Get(k)
		if !ok {
			t.Fatalf("Get(%d) missing", k)
		}
		want := k
		if k%2 == 0 {
			want = k * 7
		}
		if v != want {
			t.Fatalf("Get(%d)=%d want %d", k, v, want)
		}
	}
}

// TestFaultToleranceOnReads: an injected device read failure mid-descent
// must surface as a miss, not a panic, and the tree must serve correctly
// once the fault clears.
func TestFaultToleranceOnReads(t *testing.T) {
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 2) // tiny: every op hits the device
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	dev.SetInjector(faults.New(faults.Plan{Seed: 7, PRead: 0.5}))
	misses := 0
	for k := uint64(0); k < 10; k++ {
		if _, ok := tr.Get(k * 100); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("injected fault never surfaced")
	}
	dev.SetInjector(nil)
	for k := uint64(0); k < 2000; k += 111 {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("post-fault Get(%d) = %d,%v", k, v, ok)
		}
	}
}
