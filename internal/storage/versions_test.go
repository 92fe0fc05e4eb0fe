package storage

import (
	"reflect"
	"testing"
)

// versionHarness drives a VersionSet[int] (the state is just a label) and
// records what it reclaims, in order.
type versionHarness struct {
	t         *testing.T
	vs        *VersionSet[int]
	view      *PageView
	reclaimed []PageID
}

func newVersionHarness(t *testing.T, keep int) *versionHarness {
	h := &versionHarness{t: t, view: NewDevice(128, RAM, nil).View()}
	h.vs = NewVersionSet[int](keep, func(pid PageID) { h.reclaimed = append(h.reclaimed, pid) })
	return h
}

// expect asserts the pages reclaimed since the last call, in order.
func (h *versionHarness) expect(step string, want ...PageID) {
	h.t.Helper()
	if len(want) == 0 && len(h.reclaimed) == 0 {
		return
	}
	if !reflect.DeepEqual(h.reclaimed, want) {
		h.t.Fatalf("%s: reclaimed %v, want %v", step, h.reclaimed, want)
	}
	h.reclaimed = nil
}

func (h *versionHarness) windowEpochs() []uint64 {
	var es []uint64
	for _, v := range h.vs.Window() {
		es = append(es, v.Epoch())
	}
	return es
}

func TestVersionSetNil(t *testing.T) {
	var vs *VersionSet[int]
	if vs.Epoch() != 0 || vs.Window() != nil || vs.Retired() != 0 || vs.Acquire() != nil {
		t.Fatal("nil set is not the empty, epoch-0 set")
	}
}

// TestVersionSetWindowTrimsOldestFirst: epochs are stamped 1, 2, 3, … and the
// window keeps the newest `keep` of them.
func TestVersionSetWindowTrimsOldestFirst(t *testing.T) {
	h := newVersionHarness(t, 3)
	if h.vs.Epoch() != 1 || h.vs.Acquire() != nil {
		t.Fatal("fresh set: want epoch 1 and nothing to acquire")
	}
	for i := 1; i <= 5; i++ {
		h.vs.Publish(i, h.view)
		if got := h.vs.Epoch(); got != uint64(i+1) {
			t.Fatalf("after publish %d: write epoch %d", i, got)
		}
	}
	if got, want := h.windowEpochs(), []uint64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window epochs %v, want %v", got, want)
	}
	v := h.vs.Acquire()
	if v.Epoch() != 5 || v.State != 5 || v.View() != h.view {
		t.Fatalf("Acquire returned epoch %d state %d, want the newest (5)", v.Epoch(), v.State)
	}
	v.Release()
}

// TestVersionSetReclaimRule: a page retired during epoch r is freed only once
// the minimum live epoch has reached r, and pages go in retire order.
func TestVersionSetReclaimRule(t *testing.T) {
	h := newVersionHarness(t, 2)
	h.vs.Publish(0, h.view) // version @1; write epoch 2
	h.vs.Retire(10)         // superseded during epoch 2: version @1 references it
	h.vs.Retire(11)
	h.vs.Publish(0, h.view) // version @2; window {1,2}; min live 1 < 2
	h.expect("window still holds @1")
	h.vs.Retire(20) // during epoch 3: versions @1 and @2 reference it
	if h.vs.Retired() != 3 {
		t.Fatalf("retired %d, want 3", h.vs.Retired())
	}
	h.vs.Publish(0, h.view) // version @3; window {2,3}; min live 2
	h.expect("@1 left the window", 10, 11)
	h.vs.Publish(0, h.view) // window {3,4}; min live 3
	h.expect("@2 left the window", 20)
	if h.vs.Retired() != 0 {
		t.Fatalf("retired %d after everything drained", h.vs.Retired())
	}
}

// TestVersionSetPinnedVersionHoldsPages: a version pushed out of the window
// while a reader still holds it keeps every page it can reach until Release,
// and the release takes effect at the next publish.
func TestVersionSetPinnedVersionHoldsPages(t *testing.T) {
	h := newVersionHarness(t, 1)
	h.vs.Publish(0, h.view) // @1
	reader := h.vs.Acquire()
	h.vs.Retire(10)         // epoch 2
	h.vs.Publish(0, h.view) // @2; @1 dropped from the window but pinned
	h.vs.Retire(20)         // epoch 3
	h.vs.Publish(0, h.view) // @3; window {3}; min live still 1
	if got := h.windowEpochs(); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("window epochs %v, want [3]", got)
	}
	h.expect("reader on @1 still out")
	reader.Release()
	h.expect("release alone frees nothing: reclamation is writer-side")
	h.vs.Publish(0, h.view) // @4; window {4}
	h.expect("after release", 10, 20)
}

// TestVersionRetainNeverRevives: Retain takes a reference while any is held
// and fails once the last one is released — it does not bring the version
// back, so the writer's next Publish reclaims what only that version pinned.
// Retain is the only thing a reader racing the writer's reclamation has.
func TestVersionRetainNeverRevives(t *testing.T) {
	h := newVersionHarness(t, 1)
	h.vs.Publish(0, h.view) // @1
	first := h.vs.Acquire()
	h.vs.Retire(10)         // epoch 2: only @1 references it
	h.vs.Publish(0, h.view) // @2; @1 out of the window, pinned by first
	if !first.Retain() {
		t.Fatal("Retain failed while Acquire's reference was held")
	}
	first.Release()
	if !first.Retain() {
		t.Fatal("Retain failed while a retained reference was held")
	}
	first.Release()
	first.Release()
	for i := 0; i < 2; i++ {
		if first.Retain() {
			t.Fatal("Retain revived a version whose last reference was released")
		}
	}
	h.expect("reclamation is writer-side")
	h.vs.Publish(0, h.view) // @3
	h.expect("after the last release", 10)
}

// TestVersionSetBarrierVersions: a version published without a view anchors
// reclamation exactly like a readable one, but Acquire never returns it.
func TestVersionSetBarrierVersions(t *testing.T) {
	h := newVersionHarness(t, 2)
	h.vs.Publish(0, nil) // barrier @1
	if h.vs.Acquire() != nil {
		t.Fatal("Acquire handed out a view-less version")
	}
	h.vs.Retire(10)      // epoch 2
	h.vs.Publish(0, nil) // barrier @2; window {1,2}
	h.expect("barrier @1 still anchors its pages")
	if h.vs.Acquire() != nil {
		t.Fatal("Acquire handed out a view-less version")
	}
	h.vs.Publish(0, h.view) // readable @3; window {2,3}; min live 2
	h.expect("barrier @1 left the window", 10)
	if v := h.vs.Acquire(); v == nil || v.Epoch() != 3 {
		t.Fatal("a readable version on top of barriers must be acquirable")
	} else {
		v.Release()
	}
	h.vs.Publish(0, nil) // newest is a barrier again: older readable @3 is not handed out
	if h.vs.Acquire() != nil {
		t.Fatal("Acquire reached past a barrier to an older version")
	}
}

// TestVersionSetBirths: a page born during the current epoch is private until
// the next Publish; a page the set never saw born is shared wherever its id
// falls; a page freed while private and handed out again is private again
// once Born; and a nil set holds every page private.
func TestVersionSetBirths(t *testing.T) {
	var none *VersionSet[int]
	none.Born(7)
	if !none.Private(7) || !none.Private(1<<20) {
		t.Fatal("nil set: every page must be private")
	}

	h := newVersionHarness(t, 2)
	vs := h.vs
	vs.Born(3)
	if !vs.Private(3) {
		t.Fatal("page born this epoch is not private")
	}
	for _, pid := range []PageID{0, 2, 4, 1 << 20} { // never born: inside and beyond the births slice
		if vs.Private(pid) {
			t.Fatalf("page %d was never born but reads private", pid)
		}
	}
	vs.Publish(1, h.view)
	if vs.Private(3) {
		t.Fatal("page born before the publish is still private")
	}

	// Page 5 is born, freed while private (the set is not told), and its id
	// handed out again — in the same epoch, then after a publish.
	vs.Born(5)
	vs.Born(5)
	if !vs.Private(5) {
		t.Fatal("page reborn in its own epoch is not private")
	}
	vs.Publish(2, h.view)
	if vs.Private(5) {
		t.Fatal("page born before the publish is still private")
	}
	vs.Born(5)
	if !vs.Private(5) || vs.Private(3) {
		t.Fatal("rebirth after a publish: want page 5 private, page 3 shared")
	}
	if vs.Retired() != 0 {
		t.Fatalf("births retired %d pages", vs.Retired())
	}
}
