package storage

import (
	"errors"
	"fmt"

	"repro/internal/rum"
)

// PoolStats aggregates buffer pool behaviour.
type PoolStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Overflows  uint64 // frames allocated beyond capacity because all were pinned
	// Retries counts device operations re-attempted after a transient
	// injected fault (see SetRetryBudget).
	Retries uint64
	// RetryFailures counts operations that still failed after the retry
	// budget was exhausted.
	RetryFailures uint64
	// FlushFailures counts dirty-frame write-backs that failed; the frame
	// stays cached and dirty so no acknowledged data is silently dropped.
	FlushFailures uint64
	// FetchFailures counts Fetch calls whose device read failed (after any
	// retries). A failed fetch installs no frame and counts neither a hit
	// nor a miss, so HitRatio stays a statement about served requests and
	// Misses reconciles exactly with successful device reads.
	FetchFailures uint64
}

// HitRatio returns hits / (hits+misses), or 0 for an untouched pool.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Frame is a pinned page held in the buffer pool. Callers must Release every
// frame they Fetch or create. The frame and its data slice are only valid
// while pinned: once released, the next miss may evict the frame and hand
// the struct and its buffer straight to the page being installed, so a
// retained *Frame or Data() slice then shows another page's bytes, not a
// stale copy of this one. Builds with -tags racecheck poison the buffer at
// that hand-off instead of reusing it (see framecheck_on.go).
type Frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	// Intrusive LRU links (see BufferPool.lru).
	prev, next *Frame
}

// ID returns the page this frame caches.
func (f *Frame) ID() PageID { return f.id }

// Data returns the frame's page buffer. Mutating it requires MarkDirty.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the frame's contents diverge from the device and
// must be written back on eviction or flush.
func (f *Frame) MarkDirty() { f.dirty = true }

// BufferPool caches device pages with LRU replacement. It models the MEM
// parameter of Table 1: a structure whose working set fits in the pool pays
// no device traffic after warm-up, one that does not pays per page.
//
// A BufferPool is single-owner, like the Device beneath it: not safe for
// concurrent use, and never to be shared between run cells — each cell builds
// its own pool over its own device. Builds with -tags racecheck bind the pool
// to the first goroutine that touches it and panic on use from any other.
type BufferPool struct {
	owner    owner
	dev      *Device
	capacity int
	// frames is the page table: the frame caching page id sits at frames[id],
	// nil when the page is not resident. The device hands ids out densely (its
	// own page array is a slice and its free list recycles), so the table
	// costs one pointer per device page; it grows by doubling in adopt and is
	// never shrunk. resident counts its non-nil slots.
	frames   []*Frame
	resident int
	// lru is the sentinel of a circular list threaded through the cached
	// frames: lru.next is the most recently used frame, lru.prev the least.
	lru     Frame
	stats   PoolStats
	hook    Hook
	retries int // extra attempts per device op after a transient fault
	ioBatch int // pages per batch submission (1 = per-page I/O)

	// Scratch reused across calls so the miss path allocates nothing. None
	// outgrows one batch of entries, except raIDs, which is bounded by a
	// prefetch's clamp of half the pool. Write-back and readahead keep
	// separate sets because an eviction forced by a readahead install runs
	// flushGroup while the readahead's own ids are still in use.
	group   []*Frame // flushVictim / FlushAll write-back group
	wbIDs   []PageID // flushGroup submission
	wbData  [][]byte
	raIDs   []PageID // Readahead candidates
	raPages [][]byte // Readahead batch images
}

// NewBufferPool creates a pool of capacity pages over dev. Capacity must be
// at least 1. The I/O batch defaults to the device's channel parallelism:
// multi-queue media get vectored write-back out of the box, flat media keep
// exact per-page submission (see SetIOBatch).
func NewBufferPool(dev *Device, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	ioBatch := dev.CostModel().Channels
	if ioBatch < 1 {
		ioBatch = 1
	}
	p := &BufferPool{
		dev:      dev,
		capacity: capacity,
		ioBatch:  ioBatch,
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// lookup returns the frame caching id, or nil.
func (p *BufferPool) lookup(id PageID) *Frame {
	if int(id) < len(p.frames) {
		return p.frames[id]
	}
	return nil
}

// drop clears id's slot in the page table.
func (p *BufferPool) drop(id PageID) {
	if p.frames[id] != nil {
		p.frames[id] = nil
		p.resident--
	}
}

// pushFront links f in as the most recently used frame.
func (p *BufferPool) pushFront(f *Frame) {
	f.prev, f.next = &p.lru, p.lru.next
	f.next.prev = f
	p.lru.next = f
}

// unlink removes f from the LRU list.
func (p *BufferPool) unlink(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// Device returns the underlying device.
func (p *BufferPool) Device() *Device { return p.dev }

// SetHook attaches (or, with nil, detaches) an observer for pool events.
// Device-level traffic is hooked separately via Device.SetHook.
func (p *BufferPool) SetHook(h Hook) { p.hook = h }

// Capacity returns the pool capacity in pages.
func (p *BufferPool) Capacity() int { return p.capacity }

// SetRetryBudget sets how many extra attempts the pool makes when a device
// operation fails with a transient injected fault (storage.ErrTransient).
// Zero (the default) disables retries; permanent faults and crashes are
// never retried. Each retry emits an EvRetry pool event and counts in
// PoolStats.Retries.
func (p *BufferPool) SetRetryBudget(n int) {
	if n < 0 {
		n = 0
	}
	p.retries = n
}

// RetryBudget returns the current retry budget.
func (p *BufferPool) RetryBudget() int { return p.retries }

// SetIOBatch sets the pool's batch-submission width: how many dirty frames
// one vectored write-back (FlushAll, eviction groups) gathers into a single
// Device.WriteBatch, and how many pages one Readahead submission carries.
// Values below 1 clamp to 1, which disables batching (per-page I/O, the
// exact pre-batching behaviour). Widths beyond the device's channel
// parallelism are allowed — the device prices the excess as extra waves, so
// sweeping past the channel limit shows saturation.
func (p *BufferPool) SetIOBatch(n int) {
	if n < 1 {
		n = 1
	}
	p.ioBatch = n
}

// IOBatch returns the current batch-submission width.
func (p *BufferPool) IOBatch() int { return p.ioBatch }

// batchIO reports whether the pool currently submits batched I/O: a batch
// width above 1 and a clean device. With an injector armed the pool stays on
// the per-frame path, preserving per-fault semantics and the copying flush
// (a torn batch must not corrupt frames it may retry from).
func (p *BufferPool) batchIO() bool {
	return p.ioBatch > 1 && !p.dev.Faulty() && !p.dev.Crashed()
}

// DirtyCount returns the number of cached frames whose contents diverge from
// the device. After FlushAll it is zero unless write-backs failed; durability
// checkpoints (e.g. the LSM manifest) must verify it before advancing.
func (p *BufferPool) DirtyCount() int {
	n := 0
	for f := p.lru.next; f != &p.lru; f = f.next {
		if f.dirty {
			n++
		}
	}
	return n
}

// Crash simulates losing the pool's volatile state: every frame — pinned or
// not, dirty or not — is discarded with no write-back. The device image is
// left exactly as the last successful writes left it. Frames still held by
// callers become dangling; a crash ends the structure's life, so the only
// valid next step is recovery against the reopened device.
func (p *BufferPool) Crash() {
	p.owner.assert("BufferPool")
	clear(p.frames)
	p.resident = 0
	p.lru.prev, p.lru.next = &p.lru, &p.lru
}

// Stats returns a copy of the pool counters.
func (p *BufferPool) Stats() PoolStats { return p.stats }

// Len returns the number of frames currently cached.
func (p *BufferPool) Len() int { return p.resident }

// Fetch pins the frame for page id, reading it from the device on a miss.
func (p *BufferPool) Fetch(id PageID) (*Frame, error) {
	p.owner.assert("BufferPool")
	if f := p.lookup(id); f != nil {
		p.stats.Hits++
		f.pins++
		if p.lru.next != f {
			p.unlink(f)
			p.pushFront(f)
		}
		if p.hook != nil {
			p.hook.StorageEvent(EvHit, id, p.dev.Class(id), 0)
		}
		return f, nil
	}
	// The miss is counted only once the repairing device read has
	// succeeded: a failed read installs nothing and counts a FetchFailure,
	// not a miss, so HitRatio and the miss ledger stay reconciled with the
	// device's successful reads.
	src, err := p.readWithRetry(id)
	if err != nil {
		p.stats.FetchFailures++
		return nil, err
	}
	p.stats.Misses++
	if p.hook != nil {
		p.hook.StorageEvent(EvMiss, id, p.dev.Class(id), 0)
	}
	f, _ := p.install(id)
	copy(f.data, src) // a full page image: a recycled buffer needs no clearing
	return f, nil
}

// readWithRetry reads a page, re-attempting up to the retry budget when the
// failure is a transient injected fault. Permanent faults, crashes, and
// structural errors (ErrFreed, ErrBadPage) fail immediately.
func (p *BufferPool) readWithRetry(id PageID) ([]byte, error) {
	src, err := p.dev.Read(id)
	for attempt := 0; err != nil && errors.Is(err, ErrTransient) && attempt < p.retries; attempt++ {
		p.stats.Retries++
		if p.hook != nil {
			p.hook.StorageEvent(EvRetry, id, p.dev.Class(id), 0)
		}
		src, err = p.dev.Read(id)
	}
	if err != nil && errors.Is(err, ErrTransient) && p.retries > 0 {
		p.stats.RetryFailures++
	}
	return src, err
}

// writeWithRetry writes a page image, re-attempting transient injected
// faults up to the retry budget. Used for write-backs when an injector is
// armed (the copying path keeps the frame intact across a torn write).
func (p *BufferPool) writeWithRetry(id PageID, data []byte) error {
	err := p.dev.Write(id, data)
	for attempt := 0; err != nil && errors.Is(err, ErrTransient) && attempt < p.retries; attempt++ {
		p.stats.Retries++
		if p.hook != nil {
			p.hook.StorageEvent(EvRetry, id, p.dev.Class(id), 0)
		}
		err = p.dev.Write(id, data)
	}
	if err != nil && errors.Is(err, ErrTransient) && p.retries > 0 {
		p.stats.RetryFailures++
	}
	return err
}

// NewPage allocates a fresh zeroed page of class c on the device and returns
// it pinned and dirty, without any device read (a blind write).
func (p *BufferPool) NewPage(c rum.Class) (*Frame, error) {
	p.owner.assert("BufferPool")
	id := p.dev.Alloc(c)
	f, recycled := p.install(id)
	if recycled {
		clear(f.data)
	}
	f.dirty = true
	return f, nil
}

// install makes room if needed and registers a pinned frame for id. When
// that evicts a victim, the victim's frame is the one returned (recycled is
// true and its buffer still holds the victim's bytes); only a pool below
// capacity, or one overflowing because everything is pinned, allocates.
func (p *BufferPool) install(id PageID) (f *Frame, recycled bool) {
	if p.resident >= p.capacity {
		if f = p.evictOne(); f == nil {
			p.stats.Overflows++
		}
	}
	recycled = f != nil
	if !recycled {
		f = p.newFrame()
	}
	p.adopt(f, id, 1)
	return f, recycled
}

func (p *BufferPool) newFrame() *Frame {
	return &Frame{data: make([]byte, p.dev.PageSize())}
}

// adopt registers f, fresh or handed over by evictOne, as the clean
// most-recently-used frame caching id.
func (p *BufferPool) adopt(f *Frame, id PageID, pins int) {
	f.id, f.pins, f.dirty = id, pins, false
	p.pushFront(f)
	if int(id) >= len(p.frames) {
		p.growTable(id)
	}
	if p.frames[id] == nil {
		p.resident++
	} else {
		// The page was freed on the device behind the pool's back and its id
		// handed out again: the stale frame stays on the LRU list until it is
		// evicted. Racecheck builds panic here.
		ghostFrame(id)
	}
	p.frames[id] = f
}

// minPageTable is the page table's first size, in slots.
const minPageTable = 64

// growTable extends the page table to cover id, at least doubling it so that
// a growing device costs amortized constant work per page.
func (p *BufferPool) growTable(id PageID) {
	n := max(2*len(p.frames), minPageTable, int(id)+1)
	p.frames = append(p.frames, make([]*Frame, n-len(p.frames))...)
}

// evictOne removes the least recently used unpinned frame, flushing it if
// dirty. Frames whose write-back fails (an injected device fault) are kept
// cached and dirty rather than dropped — losing an acknowledged write to an
// eviction would be silent corruption — so the search moves on to the next
// victim. It returns the victim's frame, detached from the pool, for the
// caller to install its page in — frames are recycled only by this direct
// hand-off, never parked — or nil if every frame is pinned or unflushable.
// Under a batch width above 1 a dirty victim's write-back is amortized (see
// flushVictim); victim choice (strict LRU order among unpinned frames) is
// unchanged.
func (p *BufferPool) evictOne() *Frame {
	for f := p.lru.prev; f != &p.lru; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if f.dirty && !p.flushVictim(f) {
			continue
		}
		p.unlink(f)
		p.drop(f.id)
		p.stats.Evictions++
		if p.hook != nil {
			p.hook.StorageEvent(EvEvict, f.id, p.dev.Class(f.id), 0)
		}
		return handOff(f)
	}
	return nil
}

// flushFrame writes a dirty frame back to the device, reporting success.
// A frame whose page was freed while cached (ErrFreed, ErrBadPage) has
// nothing left to persist: its contents are dropped and the flush counts as
// success. Any other failure — injected faults surviving the retry budget,
// a crashed device — leaves the frame dirty and counts a FlushFailure.
func (p *BufferPool) flushFrame(f *Frame) bool {
	var err error
	if p.dev.Faulty() {
		// Copying path: a torn write must tear the device image, not the
		// frame we may still need to retry from.
		err = p.writeWithRetry(f.id, f.data)
	} else {
		var dst []byte
		dst, err = p.dev.WriteInPlace(f.id)
		if err == nil {
			copy(dst, f.data)
		}
	}
	if errors.Is(err, ErrFreed) || errors.Is(err, ErrBadPage) {
		f.dirty = false
		return true
	}
	if err != nil {
		p.stats.FlushFailures++
		return false
	}
	f.dirty = false
	p.stats.WriteBacks++
	if p.hook != nil {
		p.hook.StorageEvent(EvWriteBack, f.id, p.dev.Class(f.id), 0)
	}
	return true
}

// flushGroup writes a group of dirty frames back as one batch submission.
// Callers have already excluded freed pages; a group of one degrades to the
// ordinary per-frame flush. Should the batch fail anyway (a crash latched
// mid-run), the group falls back to per-frame flushes so the failure ledger
// (FlushFailures, dirty retention) is exactly the unbatched one.
func (p *BufferPool) flushGroup(group []*Frame) {
	if len(group) == 1 {
		p.flushFrame(group[0])
		return
	}
	p.wbIDs, p.wbData = p.wbIDs[:0], p.wbData[:0]
	for _, f := range group {
		p.wbIDs, p.wbData = append(p.wbIDs, f.id), append(p.wbData, f.data)
	}
	if err := p.dev.WriteBatch(p.wbIDs, p.wbData); err != nil {
		for _, f := range group {
			p.flushFrame(f)
		}
		return
	}
	for _, f := range group {
		f.dirty = false
		p.stats.WriteBacks++
		if p.hook != nil {
			p.hook.StorageEvent(EvWriteBack, f.id, p.dev.Class(f.id), 0)
		}
	}
}

// flushVictim writes back a dirty eviction victim, reporting whether the
// frame came out clean. Under batched I/O the victim's unavoidable
// write-back is amortized: up to IOBatch-1 other cold dirty unpinned frames
// join the same submission, so eviction pressure under a write burst drains
// at queue depth instead of one page per eviction. The group forms only
// around a victim that must be written anyway — the pool never flushes more
// eagerly than per-frame eviction would, so dirty frames that would have
// been freed before eviction still cost nothing. Frames whose page was
// freed while cached have nothing to persist and are marked clean instead
// of joining the group.
func (p *BufferPool) flushVictim(victim *Frame) bool {
	if !p.batchIO() {
		return p.flushFrame(victim)
	}
	group := append(p.group[:0], victim)
	for f := p.lru.prev; f != &p.lru && len(group) < p.ioBatch; f = f.prev {
		if f == victim || f.pins > 0 || !f.dirty {
			continue
		}
		if p.dev.check(f.id) != nil {
			f.dirty = false
			continue
		}
		group = append(group, f)
	}
	p.group = group
	p.flushGroup(group)
	return !victim.dirty
}

// Release unpins a frame previously returned by Fetch or NewPage.
func (p *BufferPool) Release(f *Frame) {
	p.owner.assert("BufferPool")
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: release of unpinned frame %d", f.id))
	}
	f.pins--
}

// FreePage drops any cached frame for id without write-back and frees the
// page on the device. The frame must not be pinned.
func (p *BufferPool) FreePage(id PageID) error {
	p.owner.assert("BufferPool")
	if f := p.lookup(id); f != nil {
		if f.pins > 0 {
			return fmt.Errorf("storage: freeing pinned page %d", id)
		}
		p.unlink(f)
		p.drop(id)
	}
	return p.dev.Free(id)
}

// FlushAll writes back every dirty frame, leaving them cached and clean.
// Frames whose write-back fails stay dirty (PoolStats.FlushFailures counts
// them; DirtyCount reports how many remain). Frames are visited in LRU
// order, not map order, so an armed fault injector sees the same write
// sequence on every run — part of the determinism contract with the
// parallel bench runner. Under a batch width above 1 the dirty frames are
// gathered (still in LRU order) into IOBatch-sized Device.WriteBatch
// submissions, so a full-pool flush drains at queue depth.
func (p *BufferPool) FlushAll() {
	p.owner.assert("BufferPool")
	if !p.batchIO() {
		for f := p.lru.prev; f != &p.lru; f = f.prev {
			if f.dirty {
				p.flushFrame(f)
			}
		}
		return
	}
	group := p.group[:0]
	for f := p.lru.prev; f != &p.lru; f = f.prev {
		if !f.dirty {
			continue
		}
		if p.dev.check(f.id) != nil {
			f.dirty = false // freed while cached: nothing left to persist
			continue
		}
		group = append(group, f)
		if len(group) == p.ioBatch {
			p.flushGroup(group)
			group = group[:0]
		}
	}
	if len(group) > 0 {
		p.flushGroup(group)
	}
	p.group = group
}

// Readahead batch-reads the given pages into the pool ahead of demand,
// installing them unpinned and clean, and returns how many were installed.
// Pages already cached or no longer live are skipped; the prefetch is
// clamped to half the pool — a prefetch must never wipe the demand working
// set — and submitted in IOBatch-sized batches. Each
// installed page counts a miss (it cost a device read; the later Fetch that
// finds it is an honest hit), so the miss ledger still reconciles with
// device reads. On flat media, or with a fault injector armed, Readahead is
// a no-op — prefetching only pays when the device can serve the batch in
// parallel, and fault streams must see demand-order reads.
func (p *BufferPool) Readahead(ids []PageID) int {
	p.owner.assert("BufferPool")
	if !p.batchIO() {
		return 0
	}
	limit := p.capacity / 2
	if limit < 1 {
		limit = 1
	}
	want := p.raIDs[:0]
	for _, id := range ids {
		if p.lookup(id) != nil {
			continue
		}
		if p.dev.check(id) != nil {
			continue
		}
		want = append(want, id)
		if len(want) == limit {
			break
		}
	}
	p.raIDs = want
	installed := 0
	for len(want) > 0 {
		chunk := want
		if len(chunk) > p.ioBatch {
			chunk = chunk[:p.ioBatch]
		}
		want = want[len(chunk):]
		if cap(p.raPages) < len(chunk) {
			p.raPages = make([][]byte, p.ioBatch)
		}
		pages := p.raPages[:len(chunk)]
		if err := p.dev.readBatchInto(chunk, pages); err != nil {
			return installed
		}
		for i, id := range chunk {
			if p.lookup(id) != nil {
				continue // duplicate id within the request
			}
			var f *Frame
			if p.resident >= p.capacity {
				if f = p.evictOne(); f == nil {
					return installed // everything pinned: never overflow for a prefetch
				}
			} else {
				f = p.newFrame()
			}
			copy(f.data, pages[i])
			p.adopt(f, id, 0)
			p.stats.Misses++
			if p.hook != nil {
				p.hook.StorageEvent(EvMiss, id, p.dev.Class(id), 0)
			}
			installed++
		}
	}
	return installed
}

// DropAll flushes and then discards every unpinned frame, emptying the
// cache. Frames that are pinned, or that could not be flushed, stay cached.
func (p *BufferPool) DropAll() {
	p.owner.assert("BufferPool")
	p.FlushAll()
	var next *Frame
	for f := p.lru.next; f != &p.lru; f = next {
		next = f.next
		if f.pins > 0 || f.dirty {
			continue
		}
		p.unlink(f)
		p.drop(f.id)
	}
}
