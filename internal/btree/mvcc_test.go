package btree

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
	return newTestTree(t, 512, 32, Config{Versions: versions})
}

func TestMVCCPublishRequired(t *testing.T) {
	tr := newTestTree(t, 512, 8, Config{})
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

func TestMVCCSnapshotIsolation(t *testing.T) {
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

	// Mutate heavily after the publish: updates, deletes, inserts.
	for k := uint64(0); k < 500; k++ {
		if !tr.Update(k, k+1000) {
			t.Fatalf("Update(%d) missed", k)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	for k := uint64(500); k < 900; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}

	// The snapshot still sees the published state, exactly.
	var m rum.Meter
	if snap.Len() != 500 {
		t.Fatalf("snap.Len = %d, want 500", snap.Len())
	}
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
	if tr.Len() != 800 {
		t.Fatalf("tree.Len = %d, want 800", tr.Len())
	}
	if v, ok := tr.Get(250); !ok || v != 1250 {
		t.Fatalf("tree.Get(250) = %d,%v; want 1250,true", v, ok)
	}
	if _, ok := tr.Get(50); ok {
		t.Fatal("tree.Get(50) sees a deleted key")
	}
}

func TestMVCCScanMatchesSorted(t *testing.T) {
	tr := newMVCCTree(t, 2)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(2000)
	for _, k := range keys {
		if err := tr.Insert(uint64(k), uint64(k)*3); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// MVCC live-tree scans descend without the leaf chain; verify order and
	// bounds against the obvious answer.
	lo, hi := uint64(137), uint64(1620)
	var got []uint64
	tr.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	if len(got) != int(hi-lo+1) {
		t.Fatalf("scan emitted %d keys, want %d", len(got), hi-lo+1)
	}
	for i, k := range got {
		if k != lo+uint64(i) {
			t.Fatalf("scan out of order at %d: got %d want %d", i, k, lo+uint64(i))
		}
	}
}

func TestMVCCEpochsMonotone(t *testing.T) {
	tr := newMVCCTree(t, 2)
	var last uint64
	for i := 0; i < 10; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
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

func TestMVCCReclamation(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	base := tr.Pool().Device().LivePages()

	// Many publish cycles with updates in between. With retention bounded at
	// 2 versions and no outstanding snapshots, reclamation must keep the
	// device from growing without bound.
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		for i := 0; i < 50; i++ {
			k := uint64(rng.Intn(2000))
			if !tr.Update(k, k+uint64(round)) {
				t.Fatalf("Update(%d) missed", k)
			}
		}
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	live := tr.Pool().Device().LivePages()
	if live > base*3 {
		t.Fatalf("device grew from %d to %d live pages: reclamation is not keeping up", base, live)
	}
	st := tr.SnapshotStats()
	if st.Versions != 2 {
		t.Fatalf("retained versions = %d, want 2", st.Versions)
	}

	// A pinned out-of-window snapshot blocks reclamation of its pages until
	// released; afterwards the next publish reclaims them.
	snap := tr.Acquire()
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			k := uint64(rng.Intn(2000))
			tr.Update(k, k)
		}
		if err := tr.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	pinnedLive := tr.Pool().Device().LivePages()
	var m rum.Meter
	if _, ok := snap.Get(42, &m); !ok {
		t.Fatal("pinned snapshot lost key 42")
	}
	snap.Release()
	tr.Update(1, 1)
	if err := tr.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	released := tr.Pool().Device().LivePages()
	if released >= pinnedLive {
		t.Fatalf("releasing the pinned snapshot freed nothing (%d -> %d live pages)", pinnedLive, released)
	}
}

func TestMVCCSizeCountsRetained(t *testing.T) {
	tr := newMVCCTree(t, 4)
	for k := uint64(0); k < 1000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	before := tr.Size()
	for k := uint64(0); k < 1000; k += 10 {
		tr.Update(k, k+1)
	}
	after := tr.Size()
	if after.AuxBytes <= before.AuxBytes {
		t.Fatalf("AuxBytes did not grow with retired pages: %d -> %d", before.AuxBytes, after.AuxBytes)
	}
	if tr.Stats().CowCopies == 0 {
		t.Fatal("no copy-on-write copies counted")
	}
}

// TestMVCCConcurrentReaders is the btree-level half of the single-writer/
// many-reader contract: one goroutine keeps mutating and publishing while
// eight readers hammer an acquired snapshot. Run with -race; the interesting
// assertion is that the race detector and the torn-read checks stay silent.
func TestMVCCConcurrentReaders(t *testing.T) {
	tr := newMVCCTree(t, 3)
	const n = 3000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k^0xabcd); err != nil {
			t.Fatalf("Insert: %v", err)
		}
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
			for i := 0; i < 5000; i++ {
				k := uint64(rng.Intn(n))
				v, ok := snap.Get(k, &m)
				if !ok || v != k^0xabcd {
					errs <- "torn or stale read"
					return
				}
			}
		}(int64(r))
	}

	// Writer: mutate and publish concurrently with the readers.
	for round := 0; round < 40; round++ {
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

// TestSnapshotGetAllocs pins the quiet read path at zero allocations.
func TestSnapshotGetAllocs(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 5000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Acquire()
	defer snap.Release()
	var m rum.Meter
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := snap.Get(2500, &m); !ok {
			t.Fatal("lost key")
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot Get allocates %v per op, want 0", allocs)
	}
}

// benchKey scatters the benchmark loops' counter over the tree's keys, so
// that consecutive reads land on unrelated leaves as a server's do; a
// sequential walk keeps one leaf hot and every branch predictable, and hides
// what the two read paths differ in.
func benchKey(i int) core.Key { return uint64(i) * 0x9E3779B97F4A7C15 >> 32 % 100000 }

// benchSnapshot publishes a 100 000-key tree on 4 KiB pages (height 3) for
// the two snapshot read benchmarks.
func benchSnapshot(b *testing.B) core.Snapshot {
	dev := storage.NewDevice(4096, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 256)
	tr, err := New(pool, Config{Versions: 2})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 100000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		b.Fatal(err)
	}
	snap := tr.Acquire()
	b.Cleanup(snap.Release)
	return snap
}

// BenchmarkSnapshotGet guards the quiet read path: a snapshot point read
// must stay allocation-free and lock-free.
func BenchmarkSnapshotGet(b *testing.B) {
	snap := benchSnapshot(b)
	var m rum.Meter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Get(benchKey(i), &m); !ok {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkSnapshotGetBatch is BenchmarkSnapshotGet through the group path:
// the same tree and the same key sequence, 64 keys a call, reported per key.
func BenchmarkSnapshotGetBatch(b *testing.B) {
	snap := benchSnapshot(b)
	const batch = 64
	var (
		m    rum.Meter
		keys [batch]core.Key
		vals [batch]core.Value
		oks  [batch]bool
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range keys {
			keys[j] = benchKey(i + j)
		}
		snap.GetBatch(keys[:], vals[:], oks[:], &m)
		if !oks[batch-1] {
			b.Fatal("lost key")
		}
	}
}

// TestMVCCPrivatePagesFreeAtOnce: under MVCC a page allocated and freed
// within one epoch was never published, so it goes straight back to the
// device — it is neither retired nor copied on write.
func TestMVCCPrivatePagesFreeAtOnce(t *testing.T) {
	tr := newMVCCTree(t, 2)
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	recs := make([]core.Record, 2000)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := tr.BulkLoad(recs); err != nil { // retires the published root, allocates private pages
		t.Fatal(err)
	}
	retired, cow := tr.vs.Retired(), tr.Stats().CowCopies
	pages := int(tr.Stats().LeafPages + tr.Stats().InternalPages)
	live := tr.Pool().Device().LivePages()
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	if got := tr.vs.Retired(); got != retired {
		t.Fatalf("dropping private pages retired %d more", got-retired)
	}
	if got := tr.Stats().CowCopies; got != cow {
		t.Fatalf("dropping private pages copied %d on write", got-cow)
	}
	if got := tr.Pool().Device().LivePages(); got != live-pages {
		t.Fatalf("live pages %d -> %d, want the %d private pages freed", live, got, pages)
	}
}

// BenchmarkCowUpdate times the write side of a snapshot-serving shard: one
// publish, then 64 updates at uniform keys, on a resident 100 000-key tree
// with Versions: 4. After the publish every page is shared, so most updates
// copy a leaf and the first few the internal path too, onto pages the
// reclaimed versions freed; the copies are what it measures. cow/op is the
// copies made per publish-and-updates round.
func BenchmarkCowUpdate(b *testing.B) {
	const batch = 64
	pool := storage.NewBufferPool(storage.NewDevice(4096, storage.RAM, nil), 4096)
	tr, err := New(pool, Config{Versions: 4})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 100000; k++ {
		tr.Insert(k, k)
	}
	rng := rand.New(rand.NewSource(1))
	copies := tr.Stats().CowCopies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Publish(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			if !tr.Update(core.Key(rng.Intn(100000)), core.Value(i)) {
				b.Fatal("lost key")
			}
		}
	}
	b.ReportMetric(float64(tr.Stats().CowCopies-copies)/float64(b.N), "cow/op")
}
