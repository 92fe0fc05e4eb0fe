package btree

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// crashStack builds a tree over an explicit device so tests can crash the
// pool and reopen the image.
func crashStack(t *testing.T, pageSize, poolPages int) (*storage.Device, *storage.BufferPool, *Tree) {
	t.Helper()
	dev := storage.NewDevice(pageSize, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, poolPages)
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return dev, pool, tr
}

// TestRecoverFlushedTree: everything flushed before the crash is served back
// after Recover, with the handle's Len/Height/stats rebuilt from the image.
func TestRecoverFlushedTree(t *testing.T) {
	dev, pool, tr := crashStack(t, 256, 8)
	const n = 500
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	pool.Crash()

	pool2 := storage.NewBufferPool(dev, 8)
	tr2, err := Recover(pool2, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if tr2.Len() != n {
		t.Fatalf("recovered Len=%d want %d", tr2.Len(), n)
	}
	if tr2.Height() != tr.Height() {
		t.Fatalf("recovered Height=%d want %d", tr2.Height(), tr.Height())
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tr2.Get(k)
		if !ok || v != k*7 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// The recovered handle must be writable: the freelist and structure are
	// coherent enough to keep growing.
	if err := tr2.Insert(n+1, 1); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	// Key order and leaf chain agree end to end.
	var last core.Key
	first := true
	tr2.RangeScan(0, ^core.Key(0), func(k core.Key, _ core.Value) bool {
		if !first && k <= last {
			t.Fatalf("scan out of order: %d after %d", k, last)
		}
		first, last = false, k
		return true
	})
}

// TestRecoverFreesOrphans: live pages outside the adopted tree (a leaf
// allocated for a split that never committed) are garbage-collected.
func TestRecoverFreesOrphans(t *testing.T) {
	dev, pool, tr := crashStack(t, 256, 8)
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	// A zeroed allocation: the moment-of-crash artifact of an interrupted
	// split that had claimed a page but never wrote it.
	orphan := dev.Alloc(rum.Base)
	if err := dev.Write(orphan, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	pool.Crash()

	live := len(dev.LivePageIDs())
	pool2 := storage.NewBufferPool(dev, 8)
	tr2, err := Recover(pool2, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := len(dev.LivePageIDs()); got != live-1 {
		t.Fatalf("orphan not freed: %d live pages, want %d", got, live-1)
	}
	if tr2.Len() != 100 {
		t.Fatalf("Len=%d", tr2.Len())
	}
}

// TestRecoverAmbiguousImageFailsLoudly: two coherent trees on one device is
// unresolvable without a superblock — Recover must refuse, not guess.
func TestRecoverAmbiguousImageFailsLoudly(t *testing.T) {
	dev := storage.NewDevice(256, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 8)
	for trees := 0; trees < 2; trees++ {
		tr, err := New(pool, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 50; k++ {
			if err := tr.Insert(k+uint64(trees)*1000, k); err != nil {
				t.Fatal(err)
			}
		}
		tr.Flush()
	}
	pool.Crash()
	if _, err := Recover(storage.NewBufferPool(dev, 8), Config{}); err == nil {
		t.Fatal("Recover adopted one of two rival trees")
	} else if !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRecoverCorruptImageFailsLoudly: a root whose child pointer dangles must
// be rejected rather than served.
func TestRecoverCorruptImageFailsLoudly(t *testing.T) {
	dev, pool, tr := crashStack(t, 256, 8)
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if tr.Height() < 2 {
		t.Fatal("test needs an internal node")
	}
	// Tear a leaf out from under the internal structure.
	var leaf storage.PageID = storage.InvalidPage
	for _, id := range dev.LivePageIDs() {
		data, err := dev.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == kindLeaf && id != tr.root {
			leaf = id
			break
		}
	}
	if leaf == storage.InvalidPage {
		t.Fatal("no leaf found")
	}
	if err := dev.Free(leaf); err != nil {
		t.Fatal(err)
	}
	pool.Crash()
	if _, err := Recover(storage.NewBufferPool(dev, 8), Config{}); err == nil {
		t.Fatal("Recover served a tree with a dangling child")
	}
}

// TestRecoverEmptyDevice: zero live pages is not a tree — fail loudly.
func TestRecoverEmptyDevice(t *testing.T) {
	dev := storage.NewDevice(256, storage.SSD, nil)
	if _, err := Recover(storage.NewBufferPool(dev, 8), Config{}); err == nil {
		t.Fatal("Recover invented a tree from an empty device")
	}
}

// TestAcquireSkipsBarrierVersions: a version published by CheckpointBarrier
// or seeded by RecoverAt has no PageView — it anchors reclamation and nobody
// reads it. Acquire must answer nil for it (nothing readable published)
// rather than hand out a snapshot whose first Get dereferences a nil view.
func TestAcquireSkipsBarrierVersions(t *testing.T) {
	dev := storage.NewDevice(256, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 16)
	tr, err := New(pool, Config{Versions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckpointBarrier(); err != nil {
		t.Fatal(err)
	}
	if st := tr.SnapshotStats(); st.Versions != 1 {
		t.Fatalf("barrier retained %d versions, want 1", st.Versions)
	}
	if s := tr.Acquire(); s != nil {
		t.Fatalf("Acquire after a barrier returned a snapshot at epoch %d", s.Epoch())
	}

	// A reader publish on top of the barrier is readable again.
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	s := tr.Acquire()
	if s == nil {
		t.Fatal("Acquire after Publish returned nil")
	}
	var m rum.Meter
	if v, ok := s.Get(7, &m); !ok || v != 8 {
		t.Fatalf("snapshot Get(7) = %d,%v, want 8", v, ok)
	}
	s.Release()

	// Same for the version RecoverAt seeds from the checkpointed root.
	root := tr.Root()
	if err := tr.CheckpointBarrier(); err != nil {
		t.Fatal(err)
	}
	if root != tr.Root() {
		t.Fatal("barrier moved the root")
	}
	pool.Crash()
	tr2, err := RecoverAt(storage.NewBufferPool(dev, 16), Config{Versions: 2}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr2.Acquire(); s != nil {
		t.Fatalf("Acquire after RecoverAt returned a snapshot at epoch %d", s.Epoch())
	}
	if v, ok := tr2.Get(7); !ok || v != 8 {
		t.Fatalf("recovered Get(7) = %d,%v, want 8", v, ok)
	}
}

// TestRecoverHonoursVersions: Recover under Config.Versions adopts the image
// the way RecoverAt does — the version set seeded with a barrier — so the
// recovered tree publishes readable snapshots, with and without
// copy-on-write history on the device. The history is published past the
// retention window, so the pages it retired are reclaimed (a retired root
// still on the device would be a rival root) while the copied leaves' stale
// chain links remain for validation to tolerate.
func TestRecoverHonoursVersions(t *testing.T) {
	for _, history := range []bool{false, true} {
		dev := storage.NewDevice(256, storage.SSD, nil)
		pool := storage.NewBufferPool(dev, 16)
		tr, err := New(pool, Config{Versions: 2})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k++ {
			if err := tr.Insert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if history {
			if err := tr.Publish(); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 300; k += 7 {
				tr.Update(k, k+1)
			}
			for i := 0; i < 2; i++ {
				if err := tr.Publish(); err != nil {
					t.Fatal(err)
				}
			}
			if tr.vs.Retired() != 0 || tr.Stats().CowCopies == 0 {
				t.Fatalf("history: %d pages still retired, %d copies on write", tr.vs.Retired(), tr.Stats().CowCopies)
			}
		}
		tr.Flush()
		pool.Crash()

		tr2, err := Recover(storage.NewBufferPool(dev, 16), Config{Versions: 2})
		if err != nil {
			t.Fatalf("history=%v: Recover: %v", history, err)
		}
		if err := tr2.Publish(); err != nil {
			t.Fatalf("history=%v: Publish after Recover: %v", history, err)
		}
		s := tr2.Acquire()
		if s == nil {
			t.Fatalf("history=%v: Acquire after Publish returned nil", history)
		}
		var m rum.Meter
		if v, ok := s.Get(42, &m); !ok || v != 43 || s.Len() != 300 {
			t.Fatalf("history=%v: snapshot Get(42) = %d,%v Len %d; want 43,true 300", history, v, ok, s.Len())
		}
		s.Release()
	}
}

// FuzzRecover damages one live page of a flushed image — overwrites bytes of
// it, or frees it — and recovers. Recover may refuse the image but must not
// panic; a refusal frees nothing; an adopted tree scans strictly ascending,
// its Len is the scan's count, and every scanned key Gets its scanned value.
// The seed images are trees of height 1, 2 and 3 and a copy-on-write image
// with two retained versions.
func FuzzRecover(f *testing.F) {
	type image struct {
		keys, height int
		cfg          Config
	}
	images := []image{
		{keys: 10, height: 1},
		{keys: 100, height: 2},
		{keys: 500, height: 3},
		{keys: 300, cfg: Config{Versions: 2}},
	}
	// build writes a seed image afresh: each input damages its own copy, on
	// its own goroutine, and a device has one owner.
	build := func(tb testing.TB, c image) *storage.Device {
		dev := storage.NewDevice(256, storage.SSD, nil)
		tr, err := New(storage.NewBufferPool(dev, 16), c.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		for k := uint64(0); k < uint64(c.keys); k++ {
			if err := tr.Insert(k, k*7); err != nil {
				tb.Fatal(err)
			}
		}
		if c.cfg.Versions > 0 {
			// Copy-on-write history published past the retention window,
			// as TestRecoverHonoursVersions leaves it.
			for round := 0; round < 3; round++ {
				if err := tr.Publish(); err != nil {
					tb.Fatal(err)
				}
				for k := uint64(round); k < uint64(c.keys); k += 7 {
					tr.Update(k, k*7)
				}
			}
			for i := 0; i < 2; i++ {
				if err := tr.Publish(); err != nil {
					tb.Fatal(err)
				}
			}
		} else if tr.Height() != c.height {
			tb.Fatalf("%d keys make height %d, want %d", c.keys, tr.Height(), c.height)
		}
		tr.Flush()
		return dev
	}
	for _, c := range images {
		build(f, c)
	}
	for i := range images {
		f.Add(uint8(i), uint16(0), uint16(0), []byte{}, false)             // intact
		f.Add(uint8(i), uint16(0), uint16(0), []byte{kindInternal}, false) // kind flipped
		f.Add(uint8(i), uint16(1), uint16(2), []byte{0xff, 0xff}, false)   // count out of range
		f.Add(uint8(i), uint16(2), uint16(4), []byte{3}, false)            // link redirected
		f.Add(uint8(i), uint16(3), uint16(20), []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, false)
		f.Add(uint8(i), uint16(1), uint16(0), []byte{}, true) // page freed
	}
	f.Fuzz(func(t *testing.T, which uint8, victim, off uint16, patch []byte, free bool) {
		img := images[int(which)%len(images)]
		dev := build(t, img)
		live := dev.LivePageIDs()
		id := live[int(victim)%len(live)]
		if free {
			if err := dev.Free(id); err != nil {
				t.Fatal(err)
			}
		} else {
			data, err := dev.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			page := slices.Clone(data)
			copy(page[int(off)%len(page):], patch)
			if err := dev.Write(id, page); err != nil {
				t.Fatal(err)
			}
		}
		before := dev.LivePageIDs()
		tr, err := Recover(storage.NewBufferPool(dev, 8), img.cfg)
		if err != nil {
			if after := dev.LivePageIDs(); !slices.Equal(before, after) {
				t.Fatalf("Recover failed (%v) but the live pages went from %v to %v", err, before, after)
			}
			return
		}
		var recs []core.Record
		n := tr.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
			if len(recs) > 0 && k <= recs[len(recs)-1].Key {
				t.Fatalf("scan emitted %d after %d", k, recs[len(recs)-1].Key)
			}
			recs = append(recs, core.Record{Key: k, Value: v})
			return true
		})
		if n != len(recs) || tr.Len() != n {
			t.Fatalf("scan returned %d, emitted %d, Len %d", n, len(recs), tr.Len())
		}
		for _, r := range recs {
			if v, ok := tr.Get(r.Key); !ok || v != r.Value {
				t.Fatalf("Get(%d) = %d,%v; the scan emitted %d", r.Key, v, ok, r.Value)
			}
		}
	})
}
