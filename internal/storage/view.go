package storage

import "repro/internal/rum"

// PageView is an immutable, read-only view of a device's page images, the
// storage half of the single-writer/many-reader contract: the owner goroutine
// keeps mutating the Device through the usual owner-asserted entry points,
// while any number of reader goroutines traverse a PageView concurrently with
// zero coordination — no locks, no atomics, no meter traffic.
//
// Safety rests on three invariants the caller (an MVCC structure such as the
// btree's versioned snapshots) must uphold:
//
//  1. Materialized capture: View is taken after every page reachable from the
//     snapshot root has been flushed to the device (BufferPool.FlushAll), so
//     readers never need the pool and no dirty frame shadows a page image.
//  2. Copy-on-write: pages reachable from a published snapshot are never
//     written in place again; mutations allocate fresh pages. A page image a
//     reader can reach is therefore byte-immutable for the view's lifetime —
//     and so is its slot in the page table: a buffer-pool write-back stores
//     a new slice header there (Device.Replace hands the frame's buffer
//     over and recycles the previous image), but only dirty frames are
//     written back and a reachable page is never dirtied, so the writer
//     stores no header, and recycles no image, that a reader can load.
//  3. Deferred reclamation: pages superseded by copy-on-write are not freed
//     (and hence never reused by Alloc, whose page the first read clears in
//     place, or the first write overwrites) until no live view can reach
//     them. A page Alloc has handed out and no write has reached is never
//     reachable from a view (invariant 1), so a reader never sees one.
//
// The view captures the device's page-table slice header, not a copy: Go
// slice growth leaves the old backing array intact, so pages allocated after
// capture are simply invisible to the view, and invariants 2 and 3 keep every
// visible page stable. Builds with -tags racecheck additionally stamp each
// page with a generation counter and panic when a reader touches a page that
// was freed or reused after capture — the reader-side half of the contract
// (see viewcheck_on.go), complementing the writer-side owner binding.
//
// A PageView counts no traffic: readers charge their own rum.Meter at the
// call site so that per-reader accounting can be merged exactly into the
// owning ledger once the read is done.
type PageView struct {
	pages [][]byte
	class []rum.Class
	stamp viewstamp
}

// View captures a read-only view of the current device image. Writer-side
// call: it is owner-asserted like every other Device entry point. The caller
// must have flushed all dirty buffer-pool frames first (invariant 1 above).
func (d *Device) View() *PageView {
	d.owner.assert("Device")
	return &PageView{
		pages: d.pages,
		class: d.class,
		stamp: d.gen.capture(len(d.pages)),
	}
}

// Page returns the image of a page captured by the view. The returned slice
// aliases device memory that the copy-on-write and deferred-reclamation
// invariants keep immutable; callers must treat it as read-only — it is the
// same slice a clean buffer-pool frame of the page shows through Data(). Safe for
// concurrent use by any goroutine. Counts no traffic — the caller meters.
func (v *PageView) Page(id PageID) []byte {
	v.stamp.check(id)
	return v.pages[id]
}

// Class returns the data class a visible page was allocated under.
func (v *PageView) Class(id PageID) rum.Class { return v.class[id] }
