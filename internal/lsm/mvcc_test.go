package lsm

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

func newMVCCTree(t *testing.T, versions int) *Tree {
	t.Helper()
	return newTestTree(t, Config{MemtableRecords: 64, BloomBitsPerKey: 10, Versions: versions})
}

func TestLSMMVCCPublishRequired(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 64})
	if err := tr.Publish(); err != core.ErrNoSnapshots {
		t.Fatalf("Publish on non-MVCC tree: %v, want ErrNoSnapshots", err)
	}
	tr2 := newMVCCTree(t, 2)
	if s := tr2.Acquire(); s != nil {
		t.Fatal("Acquire before first Publish returned a snapshot")
	}
	if err := tr2.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if s := tr2.Acquire(); s == nil {
		t.Fatal("Acquire after Publish returned nil")
	} else {
		s.Release()
	}
}

func TestLSMMVCCSnapshotIsolation(t *testing.T) {
	tr := newMVCCTree(t, 4)
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	snap := tr.Acquire()
	if snap == nil {
		t.Fatal("Acquire returned nil")
	}
	defer snap.Release()

	// Mutate heavily after the publish: updates, deletes, inserts. The blind
	// writes force flushes and compactions, rewriting the run directory the
	// snapshot froze.
	for k := uint64(0); k < 500; k++ {
		tr.Update(k, k+1000)
	}
	for k := uint64(0); k < 100; k++ {
		tr.Delete(k)
	}
	for k := uint64(500); k < 900; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}

	// The snapshot still sees the published state, exactly.
	var m rum.Meter
	for k := uint64(0); k < 500; k++ {
		v, ok := snap.Get(k, &m)
		if !ok || v != k {
			t.Fatalf("snap.Get(%d) = %d,%v; want %d,true", k, v, ok, k)
		}
	}
	if _, ok := snap.Get(700, &m); ok {
		t.Fatal("snap.Get(700) sees a post-publish insert")
	}
	want := uint64(0)
	n := snap.RangeScan(0, ^uint64(0), &m, func(k core.Key, v core.Value) bool {
		if k != want || v != want {
			t.Fatalf("snap scan got (%d,%d), want (%d,%d)", k, v, want, want)
		}
		want++
		return true
	})
	if n != 500 {
		t.Fatalf("snap scan emitted %d, want 500", n)
	}
	if m.BaseRead+m.AuxRead == 0 {
		t.Fatal("snapshot reads charged no physical traffic")
	}

	// The live tree sees the mutations.
	if v, ok := tr.Get(250); !ok || v != 1250 {
		t.Fatalf("tree.Get(250) = %d,%v; want 1250,true", v, ok)
	}
	if _, ok := tr.Get(50); ok {
		t.Fatal("tree.Get(50) sees a deleted key")
	}
}

func TestLSMMVCCSnapshotSeesMemtable(t *testing.T) {
	// Records still in the memtable at publish time must be visible through
	// the frozen copy, including tombstones shadowing older run entries.
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 200; k++ {
		tr.Insert(k, k)
	}
	tr.Flush()
	tr.Delete(7)        // tombstone in memtable shadows run entry
	tr.Insert(1000, 42) // fresh insert only in memtable
	tr.Update(11, 999)  // update only in memtable
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	snap := tr.Acquire()
	defer snap.Release()
	var m rum.Meter
	if _, ok := snap.Get(7, &m); ok {
		t.Fatal("snapshot sees a key deleted before publish")
	}
	if v, ok := snap.Get(1000, &m); !ok || v != 42 {
		t.Fatalf("snap.Get(1000) = %d,%v; want 42,true", v, ok)
	}
	if v, ok := snap.Get(11, &m); !ok || v != 999 {
		t.Fatalf("snap.Get(11) = %d,%v; want 999,true", v, ok)
	}
	// RangeScan sees the merged view: 0..199 minus 7, with 11 updated.
	got := 0
	snap.RangeScan(0, 500, &m, func(k core.Key, v core.Value) bool {
		if k == 7 {
			t.Fatal("scan emitted deleted key 7")
		}
		if k == 11 && v != 999 {
			t.Fatalf("scan emitted stale value %d for key 11", v)
		}
		got++
		return true
	})
	if got != 199 {
		t.Fatalf("scan emitted %d keys, want 199", got)
	}
}

// TestLSMSnapshotGetBatchMatchesGet holds GetBatch to its definition,
// "len(keys) Gets": values, oks, a zero value on a miss even in a reused
// buffer, and the meter to the byte — on the bare snapshot (memtable probes
// and run pages) and through core.Instrumented (logical bytes and op count
// on top). The snapshot freezes several runs, a memtable and tombstones in
// both.
func TestLSMSnapshotGetBatchMatchesGet(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 600; k++ {
		tr.Insert(10+2*k, k)
	}
	for k := uint64(0); k < 600; k += 5 {
		tr.Delete(10 + 2*k) // tombstones, most of them flushed into runs
	}
	tr.Update(12, 999)
	tr.Delete(14) // these two stay in the memtable
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, snap := range []core.Snapshot{tr.Acquire(), core.Instrument(tr).Acquire()} {
		for _, size := range []int{0, 1, 15, 16, 17, 64} {
			keys := make([]core.Key, size)
			for i := range keys {
				keys[i] = uint64(rng.Intn(1300)) // stored, deleted, in a gap, out of range
				if i > 0 && rng.Intn(8) == 0 {
					keys[i] = keys[rng.Intn(i)]
				}
			}
			vals, oks := make([]core.Value, size), make([]bool, size)
			for i := range vals {
				vals[i], oks[i] = 0xdead, true
			}
			var batch, loop rum.Meter
			snap.GetBatch(keys, vals, oks, &batch)
			for i, k := range keys {
				v, ok := snap.Get(k, &loop)
				if vals[i] != v || oks[i] != ok || (!ok && vals[i] != 0) {
					t.Fatalf("key %d: GetBatch %d,%v; Get %d,%v", k, vals[i], oks[i], v, ok)
				}
			}
			if batch != loop {
				t.Fatalf("%d keys: GetBatch charged %+v, the Gets %+v", size, batch, loop)
			}
		}
		snap.Release()
	}
}

func TestLSMMVCCEpochsMonotone(t *testing.T) {
	tr := newMVCCTree(t, 2)
	var last uint64
	for i := 0; i < 10; i++ {
		tr.Insert(uint64(i), uint64(i))
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		s := tr.Acquire()
		if s.Epoch() <= last {
			t.Fatalf("epoch %d not greater than previous %d", s.Epoch(), last)
		}
		last = s.Epoch()
		s.Release()
	}
}

func TestLSMMVCCReclamation(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 2000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	base := tr.pool.Device().LivePages()

	// Sustained update churn forces flushes and compactions; with retention
	// bounded at 2 and no pinned snapshots, the retire queue must drain and
	// the device must not grow without bound.
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			k := uint64(rng.Intn(2000))
			tr.Update(k, k+uint64(round))
		}
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	live := tr.pool.Device().LivePages()
	if live > base*4 {
		t.Fatalf("device grew from %d to %d live pages: reclamation is not keeping up", base, live)
	}
	if st := tr.SnapshotStats(); st.Versions != 2 {
		t.Fatalf("retained versions = %d, want 2", st.Versions)
	}

	// A pinned out-of-window snapshot keeps its run pages alive until
	// released; afterwards the next publish reclaims them.
	snap := tr.Acquire()
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			tr.Update(uint64(rng.Intn(2000)), 5)
		}
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	pinnedLive := tr.pool.Device().LivePages()
	var m rum.Meter
	if _, ok := snap.Get(42, &m); !ok {
		t.Fatal("pinned snapshot lost key 42")
	}
	snap.Release()
	tr.Update(1, 1)
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	released := tr.pool.Device().LivePages()
	if released >= pinnedLive {
		t.Fatalf("releasing the pinned snapshot freed nothing (%d -> %d live pages)", pinnedLive, released)
	}
}

// TestLSMMVCCConcurrentReaders is the LSM half of the single-writer/
// many-reader stress: one goroutine keeps mutating, flushing, compacting and
// publishing while eight readers hammer an acquired snapshot. Run with
// -race and -tags racecheck.
func TestLSMMVCCConcurrentReaders(t *testing.T) {
	tr := newMVCCTree(t, 3)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		tr.Insert(k, k^0xabcd)
	}
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	snap := tr.Acquire()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var m rum.Meter
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(n))
				v, ok := snap.Get(k, &m)
				if !ok || v != k^0xabcd {
					errs <- "torn or stale read"
					return
				}
			}
		}(int64(r))
	}

	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			k := uint64((round*100 + i) % n)
			tr.Update(k, uint64(round))
		}
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	snap.Release()
}

// BenchmarkLSMSnapshotGet guards the concurrent-reader point-read path.
func BenchmarkLSMSnapshotGet(b *testing.B) {
	dev := storage.NewDevice(4096, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 256)
	tr := New(pool, Config{MemtableRecords: 1024, BloomBitsPerKey: 10, Versions: 2})
	for k := uint64(0); k < 100000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		b.Fatal(err)
	}
	snap := tr.Acquire()
	defer snap.Release()
	var m rum.Meter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Get(uint64(i)%100000, &m); !ok {
			b.Fatal("lost key")
		}
	}
}
