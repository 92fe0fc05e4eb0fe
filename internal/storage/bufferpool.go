package storage

import (
	"errors"
	"fmt"
	"slices"

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
	// stays cached and dirty so no acknowledged data is silently dropped, and
	// eviction passes over it until nothing else can be evicted (evictOne).
	FlushFailures uint64
	// FetchFailures counts Fetch calls whose device read failed (after any
	// retries). A failed fetch installs no frame and counts neither a hit
	// nor a miss, so Hits and Misses stay a statement about served requests
	// and Misses reconciles exactly with successful device reads.
	FetchFailures uint64
	// Unshares counts clean frames given a private copy of their page by
	// their first MarkDirty: the one page copy a write costs.
	Unshares uint64
	// Handovers counts write-backs that moved no bytes: the frame's buffer
	// became the device's image (Device.Replace). WriteBacks - Handovers is
	// the write-backs of pinned frames, which copied: their holders may still
	// be writing through the slice Data gave them.
	Handovers uint64
	// PrefetchHits counts first Fetches of pages Readahead installed: the
	// reads a prefetch saved. Each is counted in Hits too.
	PrefetchHits uint64
	// PrefetchUnused counts pages Readahead installed that were evicted,
	// dropped or freed before any Fetch: device reads a prefetch wasted.
	PrefetchUnused uint64
}

// Frame is a pinned page held in the buffer pool. Callers must Release every
// frame they Fetch or create. The frame and its data slice are only valid
// while pinned: once released, the next miss may evict the frame and hand
// the struct straight to the page being installed, so a retained *Frame then
// shows another page's bytes, not a stale copy of this one.
//
// A page has one image while it is clean. A frame that Fetch or Readahead
// installed borrows the device's: Data() is the slice Device.Read returned,
// shared with the device and read-only. The first MarkDirty gives the frame a
// private copy, and only from then on may Data() — read again, after
// MarkDirty — be written. A write-back hands that buffer to the device as
// the page's new image and the frame borrows it back, clean again. Frames
// from NewPage and NewPageForOverwrite are born owning their buffer. Builds
// with -tags racecheck give every frame a private copy, panic when a clean
// frame's bytes differ from the device's, and poison an evicted frame's bytes
// instead of recycling the struct (see framecheck_on.go).
type Frame struct {
	data []byte
	pool *BufferPool
	// Intrusive LRU links (see BufferPool.lru); next also chains pool.idle.
	prev, next *Frame
	id         PageID
	pins       int32
	// owned: data is a private buffer, counted in pool.owned; otherwise it is
	// the device's image of the page. A dirty frame is always owned. A clean
	// one is after a copying write-back only.
	owned bool
	dirty bool
	// prefetched: Readahead installed the page and no Fetch has asked for it
	// yet (PoolStats.PrefetchHits, PrefetchUnused).
	prefetched bool
	// stuck: the frame's last write-back failed, so it is dirty; eviction
	// takes it only as a last resort (evictOne). setClean clears it.
	stuck bool
	// 64 bytes: a frame is one cache line, as it was before it learned who
	// owns its bytes (the resident hit relinks three of them).
}

// ID returns the page this frame caches.
func (f *Frame) ID() PageID { return f.id }

// Data returns the frame's page image. It is read-only until the frame has
// been marked dirty, and MarkDirty may replace it: a writer calls MarkDirty
// first and writes the slice Data returns afterwards. The frame must be
// pinned; builds with -tags racecheck panic on a call after its last Release.
func (f *Frame) Data() []byte {
	checkPinned(f)
	return f.data
}

// MarkDirty makes the frame writable and records that its contents will
// diverge from the device and must be written back on eviction or flush. On
// a frame still borrowing the device's image it first copies that image into
// a private buffer, so slices taken from Data before the call must be
// dropped.
func (f *Frame) MarkDirty() {
	if !f.owned {
		f.pool.unshare(f)
	}
	f.pool.setDirty(f)
}

// BufferPool caches device pages with LRU replacement. It models the MEM
// parameter of Table 1: a structure whose working set fits in the pool pays
// no device traffic after warm-up, one that does not pays per page.
//
// The pool has no hook of its own: its events (hits, misses, evictions,
// write-backs, retries) go to the device's (Device.SetHook), between the
// device events they cause, so one hook sees the stack's whole sequence.
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
	lru Frame
	// dirty counts the frames on the list whose dirty bit is set; setDirty and
	// setClean, the only writers of that bit, keep it.
	dirty   int
	stats   PoolStats
	retries int // extra attempts per device op after a transient fault
	ioBatch int // pages per batch submission (1 = per-page I/O)

	// spare holds page buffers no frame owns — previous device images that
	// hand-overs returned, buffers of freed and evicted frames — for MarkDirty
	// and NewPage to take instead of allocating. owned counts the buffers
	// frames own; a buffer joins spare only while owned+len(spare) is below
	// capacity, and DropAll and Crash let the list go. taken counts takeBuf
	// calls. idle chains the structs of freed frames for the next install.
	spare [][]byte
	owned int
	taken uint64
	idle  *Frame

	// Scratch reused across calls so the miss path allocates nothing. None
	// outgrows one batch of entries, except raIDs, which is bounded by a
	// prefetch's clamp of half the pool. Write-back and readahead keep
	// separate sets because an eviction forced by a readahead install runs
	// flushGroup while the readahead's own ids are still in use. The slices
	// of frames and page images are cleared when their submission ends: a
	// kept entry would pin a frame, or a buffer that has changed owner.
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
	p := &BufferPool{
		dev:      dev,
		capacity: capacity,
		ioBatch:  max(dev.CostModel().Channels, 1),
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

// Capacity returns the pool capacity in pages.
func (p *BufferPool) Capacity() int { return p.capacity }

// SetRetryBudget sets how many extra attempts the pool makes when a device
// operation fails with a transient injected fault (storage.ErrTransient).
// Zero (the default) disables retries; permanent faults and crashes are
// never retried. Each retry emits an EvRetry pool event and counts in
// PoolStats.Retries.
func (p *BufferPool) SetRetryBudget(n int) { p.retries = max(n, 0) }

// SetIOBatch sets the pool's batch-submission width: how many dirty frames
// one vectored write-back (FlushAll, eviction groups) gathers into a single
// Device.WriteBatch, and how many pages one Readahead submission carries.
// Values below 1 clamp to 1, which disables batching (per-page I/O, the
// exact pre-batching behaviour). Widths beyond the device's channel
// parallelism are allowed — the device prices the excess as extra waves, so
// sweeping past the channel limit shows saturation.
func (p *BufferPool) SetIOBatch(n int) { p.ioBatch = max(n, 1) }

// IOBatch returns the current batch-submission width.
func (p *BufferPool) IOBatch() int { return p.ioBatch }

// BatchIO reports whether the pool submits batched I/O: a batch width above
// 1. It does not ask about faults: the device stops a batch at its first
// failed page, so a batch fails as its pages written or read one by one
// would, and the pool's fallbacks take the rest page by page. Structures ask
// it before planning a read wave: where it is false, Readahead does nothing.
func (p *BufferPool) BatchIO() bool {
	return p.ioBatch > 1
}

// DirtyCount returns the number of cached frames whose contents diverge from
// the device, in O(1): the pool keeps the count. After FlushAll it is zero
// unless write-backs failed; durability checkpoints (e.g. the LSM manifest)
// must verify it before advancing.
func (p *BufferPool) DirtyCount() int { return p.dirty }

func (p *BufferPool) setDirty(f *Frame) {
	if !f.dirty {
		f.dirty = true
		p.dirty++
	}
}

func (p *BufferPool) setClean(f *Frame) {
	if f.dirty {
		f.dirty, f.stuck = false, false
		p.dirty--
	}
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
	p.spare, p.idle, p.owned, p.dirty = nil, nil, 0, 0
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
		if f.prefetched {
			f.prefetched = false
			p.stats.PrefetchHits++
		}
		f.pins++
		if p.lru.next != f {
			p.unlink(f)
			p.pushFront(f)
		}
		if h := p.dev.hook; h != nil {
			h.StorageEvent(EvHit, id, p.dev.Class(id), 0)
		}
		return f, nil
	}
	// The miss is counted only once the repairing device read has
	// succeeded: a failed read installs nothing and counts a FetchFailure,
	// not a miss, so the miss ledger stays reconciled with the device's
	// successful reads.
	var src []byte
	read := func() (err error) {
		src, err = p.dev.Read(id)
		return err
	}
	err := p.withRetry(id, read(), read)
	if err != nil {
		p.stats.FetchFailures++
		return nil, err
	}
	p.stats.Misses++
	if h := p.dev.hook; h != nil {
		h.StorageEvent(EvMiss, id, p.dev.Class(id), 0)
	}
	f := p.install(id)
	f.data = lend(src)
	return f, nil
}

// Peek returns the image of page id if the pool caches it, nil otherwise: no
// pin, no LRU move, no stat, no hook event. The bytes are read-only and valid
// only until the next pool call other than Peek, which may evict the frame,
// hand its buffer over or dirty it.
func (p *BufferPool) Peek(id PageID) []byte {
	p.owner.assert("BufferPool")
	if f := p.lookup(id); f != nil {
		return f.data
	}
	return nil
}

// withRetry takes err, what a first device transfer of page id returned,
// and re-attempts the transfer up to the retry budget while it fails with a
// transient injected fault; permanent faults, crashes and structural errors
// (ErrFreed, ErrBadPage) fail at once.
func (p *BufferPool) withRetry(id PageID, err error, transfer func() error) error {
	for attempt := 0; err != nil && errors.Is(err, ErrTransient) && attempt < p.retries; attempt++ {
		p.stats.Retries++
		if h := p.dev.hook; h != nil {
			h.StorageEvent(EvRetry, id, p.dev.Class(id), 0)
		}
		err = transfer()
	}
	if err != nil && errors.Is(err, ErrTransient) && p.retries > 0 {
		p.stats.RetryFailures++
	}
	return err
}

// NewPage allocates a fresh zeroed page of class c on the device and returns
// it pinned, dirty and owning its buffer, without any device read (a blind
// write).
func (p *BufferPool) NewPage(c rum.Class) (*Frame, error) {
	f, fresh := p.newPage(c)
	if !fresh {
		clear(f.data)
	}
	return f, nil
}

// NewPageForOverwrite is NewPage for a caller that writes every byte of the
// page before releasing it: the same pinned, dirty, owned frame on the same
// pool and device calls, but its buffer is not cleared and holds unspecified
// bytes (builds with -tags racecheck fill it with poisonByte, so a byte left
// unwritten shows). A copy-on-write copy and a run page built whole take
// their frames here; a caller that writes part of a page wants NewPage.
func (p *BufferPool) NewPageForOverwrite(c rum.Class) (*Frame, error) {
	f, _ := p.newPage(c)
	poison(f.data)
	return f, nil
}

// newPage is NewPage up to the clear: it reports whether the frame's buffer
// was freshly allocated, and so is zeros already.
func (p *BufferPool) newPage(c rum.Class) (f *Frame, fresh bool) {
	p.owner.assert("BufferPool")
	id := p.dev.Alloc(c)
	f = p.install(id)
	buf, fresh := p.takeBuf()
	p.own(f, buf)
	p.setDirty(f)
	return f, fresh
}

// install makes room if needed and registers a pinned, clean frame for id.
// The frame has no page image yet: the caller lends it the device's or gives
// it a buffer to own. When making room evicts a victim, the victim's struct
// is the one returned; only a pool below capacity with no idle struct, or
// one overflowing because everything is pinned, allocates.
func (p *BufferPool) install(id PageID) *Frame {
	var f *Frame
	if p.resident >= p.capacity {
		if f = p.evictOne(); f == nil {
			p.stats.Overflows++
		}
	}
	if f == nil {
		f = p.newFrame()
	}
	p.adopt(f, id, 1)
	return f
}

func (p *BufferPool) newFrame() *Frame {
	if f := p.idle; f != nil {
		p.idle, f.next = f.next, nil
		return f
	}
	return &Frame{pool: p}
}

// takeBuf returns a page buffer for a frame to own, or to hand to the device:
// a spare one, holding whatever its last page left there, or a fresh zeroed
// one.
func (p *BufferPool) takeBuf() (buf []byte, fresh bool) {
	p.taken++
	if n := len(p.spare); n > 0 {
		buf, p.spare[n-1] = p.spare[n-1], nil
		p.spare = p.spare[:n-1]
		return buf, false
	}
	return make([]byte, p.dev.PageSize()), true
}

// giveBuf parks a buffer nobody owns any more for the next takeBuf, unless
// the pool already holds a capacity's worth of private buffers: then it is
// left to the collector.
func (p *BufferPool) giveBuf(buf []byte) {
	if p.owned+len(p.spare) < p.capacity {
		p.spare = append(p.spare, buf)
	}
}

func (p *BufferPool) own(f *Frame, buf []byte) {
	f.data, f.owned = buf, true
	p.owned++
}

// disown takes f's private buffer away, leaving the frame without an image.
func (p *BufferPool) disown(f *Frame) (buf []byte) {
	buf, f.data, f.owned = f.data, nil, false
	p.owned--
	return buf
}

// unshare is the clean → dirty transition of a frame borrowing the device's
// image: the frame gets a private copy to write.
func (p *BufferPool) unshare(f *Frame) {
	p.owner.assert("BufferPool")
	p.checkClean(f)
	buf, _ := p.takeBuf()
	copy(buf, f.data)
	p.own(f, buf)
	p.stats.Unshares++
}

// handedOver is the dirty → clean transition after Device.Replace took f's
// buffer as the page's image and returned prev: the frame borrows its former
// buffer back and prev is spare.
func (p *BufferPool) handedOver(f *Frame, prev []byte) {
	f.data = lend(p.disown(f))
	p.giveBuf(prev)
	p.stats.Handovers++
}

// unprefetch is a frame leaving the pool: a page Readahead installed that no
// Fetch asked for was read for nothing.
func (p *BufferPool) unprefetch(f *Frame) {
	if f.prefetched {
		f.prefetched = false
		p.stats.PrefetchUnused++
	}
}

// strip takes a frame that has left the page table out of circulation: its
// buffer, if it owns one, becomes spare.
func (p *BufferPool) strip(f *Frame) {
	if f.owned {
		p.giveBuf(p.disown(f))
	}
	f.data = nil
}

// adopt registers f, fresh, idle or handed over by evictOne — clean in every
// case — as the most-recently-used frame caching id.
func (p *BufferPool) adopt(f *Frame, id PageID, pins int32) {
	f.id, f.pins = id, pins
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
// dirty (flushVictim, which may write other cold dirty frames in the same
// submission). Frames whose write-back fails (an injected device fault) are
// kept cached and dirty rather than dropped — losing an acknowledged write to
// an eviction would be silent corruption — and marked stuck: the search moves
// on to the next victim, and later searches pass over them, so a page that
// cannot be written costs no device call per eviction and splits no group.
// Only when no other frame can be evicted does a second pass, in the same LRU
// order, try the stuck frames. It returns the victim's struct, detached from
// the pool and without a page image, for the caller to install its page in,
// or nil if every frame is pinned or unflushable.
func (p *BufferPool) evictOne() *Frame {
	for _, lastResort := range [...]bool{false, true} {
		for f := p.lru.prev; f != &p.lru; f = f.prev {
			if f.pins > 0 || f.stuck != lastResort {
				continue
			}
			if f.dirty && !p.flushVictim(f) {
				continue
			}
			p.checkClean(f)
			p.unlink(f)
			p.drop(f.id)
			p.unprefetch(f)
			p.stats.Evictions++
			if h := p.dev.hook; h != nil {
				h.StorageEvent(EvEvict, f.id, p.dev.Class(f.id), 0)
			}
			return p.handOff(f)
		}
	}
	return nil
}

// flushFrame writes a dirty frame back to the device, reporting success. An
// unpinned frame hands its buffer over (Device.Replace) and borrows it back;
// a pinned one copies, since its holder may still be writing through the
// slice Data gave it. A failed or torn write swaps nothing, so either way the
// frame still owns the image its retry writes from. failed is the error of
// the frame's write in a batch that stopped at it, nil if no attempt has been
// made: that attempt is the first of the frame's retry budget. A frame whose
// page was freed while cached (ErrFreed, ErrBadPage) has nothing left to
// persist: its contents are dropped and the flush counts as success. Any
// other failure — injected faults surviving the retry budget, a crashed
// device — leaves the frame dirty, marks it stuck and counts a FlushFailure.
func (p *BufferPool) flushFrame(f *Frame, failed error) bool {
	var prev []byte
	write := func() (err error) {
		if f.pins > 0 {
			return p.dev.Write(f.id, f.data)
		}
		prev, err = p.dev.Replace(f.id, f.data)
		return err
	}
	err := failed
	if err == nil {
		err = write()
	}
	if err = p.withRetry(f.id, err, write); err == nil && f.pins == 0 {
		p.handedOver(f, prev)
	}
	if errors.Is(err, ErrFreed) || errors.Is(err, ErrBadPage) {
		p.setClean(f)
		return true
	}
	if err != nil {
		p.stats.FlushFailures++
		f.stuck = true
		return false
	}
	p.wroteBack(f)
	return true
}

func (p *BufferPool) wroteBack(f *Frame) {
	p.setClean(f)
	p.stats.WriteBacks++
	if h := p.dev.hook; h != nil {
		h.StorageEvent(EvWriteBack, f.id, p.dev.Class(f.id), 0)
	}
}

// flushGroup writes a group of dirty frames back as one batch submission,
// handing their buffers over; a pinned frame keeps its buffer and the device
// gets a copy. Callers have already excluded freed pages; a group of one —
// every group at IOBatch 1 — is the per-frame flush. Should a page of the
// batch fail (an injected fault, a crash), the device has written the frames
// before it and no other: the failed frame was not swapped, so it still owns
// the image a retry writes from, and it and the frames after it fall back to
// per-frame flushes, with their retry budget and failure ledger
// (FlushFailures, dirty retention, the stuck mark). The group, the callers'
// scratch, is cleared on the way out.
func (p *BufferPool) flushGroup(group []*Frame) {
	if len(group) == 1 {
		p.flushFrame(group[0], nil)
		group[0] = nil
		return
	}
	ids, images := p.wbIDs[:0], p.wbData[:0]
	for _, f := range group {
		image := f.data
		if f.pins > 0 {
			image, _ = p.takeBuf()
			copy(image, f.data)
		}
		ids, images = append(ids, f.id), append(images, image)
	}
	n, err := p.dev.ReplaceBatch(ids, images) // images[:n] are now the previous images
	for i, f := range group {
		if f.pins > 0 {
			p.giveBuf(images[i]) // the previous image, or the copy the batch did not reach
		} else if i < n {
			p.handedOver(f, images[i])
		}
		switch {
		case i < n:
			p.wroteBack(f)
		case i == n:
			p.flushFrame(f, err)
		default:
			p.flushFrame(f, nil)
		}
	}
	clear(images)
	clear(group)
	p.wbIDs, p.wbData = ids, images
}

// flushVictim writes back a dirty eviction victim, reporting whether the
// frame came out clean. The victim's unavoidable write-back is amortized: up
// to IOBatch-1 other cold dirty unpinned frames join the same submission, so
// eviction pressure under a write burst drains at queue depth instead of one
// page per eviction (at IOBatch 1 the group is the victim alone). The group
// forms only around a victim that must be written anyway — the pool never
// flushes more eagerly than per-frame eviction would, so dirty frames that
// would have been freed before eviction still cost nothing. Stuck frames do
// not join: their failed page would stop the batch. Frames whose page was
// freed while cached have nothing to persist and are marked clean instead of
// joining the group.
func (p *BufferPool) flushVictim(victim *Frame) bool {
	group := append(p.group[:0], victim)
	for f := p.lru.prev; f != &p.lru && len(group) < p.ioBatch; f = f.prev {
		if f == victim || f.pins > 0 || !f.dirty || f.stuck {
			continue
		}
		if p.dev.check(f.id) != nil {
			p.setClean(f)
			continue
		}
		group = append(group, f)
	}
	p.group = group
	p.flushGroup(group)
	return !victim.dirty
}

// Release unpins a frame previously returned by Fetch, NewPage or
// NewPageForOverwrite.
func (p *BufferPool) Release(f *Frame) {
	p.owner.assert("BufferPool")
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: release of unpinned frame %d", f.id))
	}
	p.checkClean(f)
	f.pins--
}

// FreePage drops any cached frame for id without write-back and frees the
// page on the device. The frame must not be pinned. Its buffer, if it owned
// one, and its struct wait for the next page that needs them.
func (p *BufferPool) FreePage(id PageID) error {
	p.owner.assert("BufferPool")
	if f := p.lookup(id); f != nil {
		if f.pins > 0 {
			return fmt.Errorf("storage: freeing pinned page %d", id)
		}
		p.unlink(f)
		p.drop(id)
		p.unprefetch(f)
		p.strip(f)
		p.setClean(f)
		f.next, p.idle = p.idle, f
	}
	return p.dev.Free(id)
}

// FreeExcept frees every live page of the device that keep does not claim,
// in ascending id order: the orphan sweep that ends a recovery, once the
// recovered structure (and whoever else shares the device) has said which
// pages it owns. It stops at the first page that cannot be freed.
func (p *BufferPool) FreeExcept(keep func(PageID) bool) error {
	for _, id := range p.dev.LivePageIDs() {
		if !keep(id) {
			if err := p.FreePage(id); err != nil {
				return fmt.Errorf("storage: freeing orphan page %d: %w", id, err)
			}
		}
	}
	return nil
}

// FlushAll writes back every dirty frame, stuck ones included, leaving them
// cached and clean. Frames whose write-back fails stay dirty and stuck
// (PoolStats.FlushFailures counts them; DirtyCount reports how many remain);
// a stuck frame that FlushAll writes is an ordinary victim again. Frames are
// visited in LRU order, not map order, so an armed fault injector sees the
// same write sequence on every run — part of the determinism contract with
// the parallel bench runner. The dirty frames are gathered (still in LRU
// order) into IOBatch-sized Device.ReplaceBatch submissions, so a full-pool
// flush drains at queue depth; at IOBatch 1 each frame is flushed alone. The
// cost is O(dirty span), not O(resident): dirtying a frame touches it, so the
// dirty frames sit near the recent end, and the walk starts at the oldest of
// them.
func (p *BufferPool) FlushAll() {
	p.owner.assert("BufferPool")
	group := p.group[:0]
	for f := p.oldestDirty(); f != &p.lru; f = f.prev {
		if !f.dirty {
			continue
		}
		if p.dev.check(f.id) != nil {
			p.setClean(f) // freed while cached: nothing left to persist
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

// oldestDirty returns the least recently used dirty frame, the sentinel if
// there is none: it walks in from the recent end until it has passed every
// dirty frame the count says there is, so the frames beyond — the clean bulk
// of a pool between two publishes — are never visited.
func (p *BufferPool) oldestDirty() *Frame {
	oldest := &p.lru
	for f, left := p.lru.next, p.dirty; left > 0 && f != &p.lru; f = f.next {
		if f.dirty {
			oldest = f
			left--
		}
	}
	return oldest
}

// Readahead batch-reads the given pages into the pool ahead of demand,
// installing them unpinned and clean, and returns how many were installed.
// Pages already cached or no longer live are skipped, and a page the
// request names twice is read once. The prefetch is clamped to half the
// pool, since a prefetch must never wipe the demand working set, and is
// submitted in IOBatch-sized batches. Each installed page counts a miss (it
// cost a device read; the later Fetch that finds it is an honest hit), so
// the miss ledger still reconciles with device reads. That first Fetch also
// counts a PrefetchHit; a page that leaves the pool before one counts
// PrefetchUnused. Where BatchIO is false, Readahead is a no-op: prefetching
// only pays when the device can serve the batch in parallel, and a caller
// streaming pages through it need not ask. A batch that fails part-way (an
// injected fault, a crash) installs the pages before the failed one and ends
// the prefetch; the failed page is left to the Fetch that wants it, which
// meets the fault under its retry budget.
func (p *BufferPool) Readahead(ids []PageID) int {
	p.owner.assert("BufferPool")
	if !p.BatchIO() {
		return 0
	}
	limit := max(p.capacity/2, 1)
	want := p.raIDs[:0]
	for _, id := range ids {
		if p.lookup(id) != nil || slices.Contains(want, id) {
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
	defer func() { clear(p.raPages) }() // device images: not the pool's to keep
	installed := 0
	for len(want) > 0 {
		chunk := want[:min(len(want), p.ioBatch)]
		want = want[len(chunk):]
		if cap(p.raPages) < len(chunk) {
			p.raPages = make([][]byte, p.ioBatch)
		}
		pages := p.raPages[:len(chunk)]
		n, err := p.dev.readBatchInto(chunk, pages)
		for i, id := range chunk[:n] {
			var f *Frame
			if p.resident >= p.capacity {
				if f = p.evictOne(); f == nil {
					return installed // everything pinned: never overflow for a prefetch
				}
			} else {
				f = p.newFrame()
			}
			f.data = lend(pages[i])
			p.adopt(f, id, 0)
			f.prefetched = true
			p.stats.Misses++
			if h := p.dev.hook; h != nil {
				h.StorageEvent(EvMiss, id, p.dev.Class(id), 0)
			}
			installed++
		}
		if err != nil {
			return installed
		}
	}
	return installed
}

// DropAll flushes and then discards every unpinned frame, emptying the
// cache, and lets the spare buffers and idle structs go with them. Frames
// that are pinned, or that could not be flushed, stay cached.
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
		p.unprefetch(f)
		p.strip(f)
	}
	p.spare, p.idle = nil, nil
}
