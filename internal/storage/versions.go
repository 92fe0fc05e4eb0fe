package storage

import "sync/atomic"

// VersionSet is the MVCC mechanism every snapshot-capable structure shares:
// the write epoch, the bounded window of published versions, the versions
// dropped from the window while readers still hold them, each page's birth
// epoch, the epoch-ordered queue of retired pages, and the one rule that
// says when a retired page may be recycled. T is the structure's frozen
// state — whatever a reader needs besides the PageView (root/height/count
// for the btree, frozen memtable plus run directory for the LSM).
//
// The rule. A page retired during epoch r was superseded (copied on write,
// compacted away) by the writer working towards the version that publishes
// at r; every version published at an epoch e < r may still reference it,
// and no version published at e >= r can. So the page is recyclable exactly
// when r <= the minimum epoch over all live versions — a version being live
// while it sits in the retention window or a reader still holds a reference
// to it. With no live version at all the minimum is the current write epoch,
// which frees everything. Until then retired pages are the memory-overhead
// (MO) tax of snapshot isolation.
//
// A version published without a PageView (a durability barrier: the WAL's
// checkpoint, or the image a recovery adopted) is live like any other — it
// anchors reclamation for as long as it sits in the window — but is never
// handed to a reader.
//
// Everything except Version.Retain and Version.Release is writer-side: it
// runs on the goroutine that owns the structure. A nil *VersionSet is a
// structure built without MVCC: it has no versions, epoch 0, nothing
// retired, and every page private.
type VersionSet[T any] struct {
	keep    int
	epoch   uint64
	reclaim func(PageID)
	window  []*Version[T] // retained published versions, oldest first
	pinned  []*Version[T] // dropped from the window, still referenced
	retired []retiredPage // retire order == epoch order
	births  []uint64      // write epoch each page was born in, indexed by PageID
}

// Version is one published immutable state. Its reference count is atomic
// because Retain and Release may run on a reader goroutine while the writer's
// reclamation pass inspects it.
type Version[T any] struct {
	State T
	epoch uint64
	view  *PageView
	refs  atomic.Int64
}

// retiredPage is a page superseded during the given epoch, awaiting
// reclamation.
type retiredPage struct {
	pid   PageID
	epoch uint64
}

// NewVersionSet returns an empty set at write epoch 1 that retains up to
// keep published versions and hands every page it reclaims, in retire order,
// to reclaim (which frees it).
func NewVersionSet[T any](keep int, reclaim func(PageID)) *VersionSet[T] {
	return &VersionSet[T]{keep: keep, epoch: 1, reclaim: reclaim}
}

// Epoch returns the current write epoch — the epoch the next Publish stamps.
func (s *VersionSet[T]) Epoch() uint64 {
	if s == nil {
		return 0
	}
	return s.epoch
}

// Window returns the retained published versions, oldest first. The slice is
// the set's own: read it, do not keep or modify it.
func (s *VersionSet[T]) Window() []*Version[T] {
	if s == nil {
		return nil
	}
	return s.window
}

// Retired returns the number of retired pages not yet reclaimed.
func (s *VersionSet[T]) Retired() int {
	if s == nil {
		return 0
	}
	return len(s.retired)
}

// Born records that pid was allocated during the current epoch.
func (s *VersionSet[T]) Born(pid PageID) {
	if s != nil {
		s.births = append(s.births, make([]uint64, max(0, int(pid)+1-len(s.births)))...)
		s.births[pid] = s.epoch
	}
}

// Private reports whether pid was born during the current epoch: no published
// version can reference it, so the writer may mutate it in place and free it
// at once. Pages the set never saw born (a recovered image's) are shared.
func (s *VersionSet[T]) Private(pid PageID) bool {
	return s == nil || int(pid) < len(s.births) && s.births[pid] == s.epoch
}

// Retire queues a page that left the live structure during the current
// epoch; published versions may still reference it.
func (s *VersionSet[T]) Retire(pid PageID) {
	s.retired = append(s.retired, retiredPage{pid: pid, epoch: s.epoch})
}

// Publish stamps state with the current epoch as the newest version,
// advances the epoch, trims the window to the retention bound and reclaims
// every retired page no live version can reach. The caller must have flushed
// the pool first, and captured view after the flush; a nil view publishes a
// barrier version (see the type comment).
func (s *VersionSet[T]) Publish(state T, view *PageView) {
	s.window = append(s.window, &Version[T]{State: state, epoch: s.epoch, view: view})
	s.epoch++

	for len(s.window) > s.keep {
		old := s.window[0]
		s.window = s.window[1:]
		if old.refs.Load() > 0 {
			s.pinned = append(s.pinned, old)
		}
	}
	// This writer-only sweep is the only place a version whose readers have
	// all released it leaves the live set.
	live := s.pinned[:0]
	for _, v := range s.pinned {
		if v.refs.Load() > 0 {
			live = append(live, v)
		}
	}
	for i := len(live); i < len(s.pinned); i++ {
		s.pinned[i] = nil
	}
	s.pinned = live

	minLive := s.epoch
	if len(s.window) > 0 {
		minLive = s.window[0].epoch
	}
	for _, v := range s.pinned {
		if v.epoch < minLive {
			minLive = v.epoch
		}
	}
	n := 0
	for n < len(s.retired) && s.retired[n].epoch <= minLive {
		s.reclaim(s.retired[n].pid)
		n++
	}
	if n > 0 {
		s.retired = append(s.retired[:0], s.retired[n:]...)
	}
}

// Acquire returns the newest published version with a reference held, or nil
// when there is nothing a reader may see: nothing published yet, or the
// newest version is a view-less barrier.
func (s *VersionSet[T]) Acquire() *Version[T] {
	if s == nil || len(s.window) == 0 {
		return nil
	}
	v := s.window[len(s.window)-1]
	if v.view == nil {
		return nil
	}
	v.refs.Add(1)
	return v
}

// Epoch returns the write epoch the version was published at.
func (v *Version[T]) Epoch() uint64 { return v.epoch }

// View returns the page images the version reads from.
func (v *Version[T]) View() *PageView { return v.view }

// Retain takes one more reference on a version the caller reached without
// holding one (a pointer another goroutine installed), from any goroutine.
// It fails once the last reference is gone: from then on the writer's next
// Publish may reclaim the version's pages, so a zero count is never revived.
// A successful Retain is paired with one Release, like an Acquire.
func (v *Version[T]) Retain() bool {
	for {
		r := v.refs.Load()
		if r == 0 {
			return false
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Acquire or Retain; it must be called
// exactly once per reference, from any goroutine. The pages the version pins
// become reclaimable at the writer's next Publish.
func (v *Version[T]) Release() { v.refs.Add(-1) }
