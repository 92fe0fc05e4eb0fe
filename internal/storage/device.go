// Package storage simulates the block storage substrate that the paper's
// cost model (the Aggarwal–Vitter I/O model used in Table 1) assumes: data
// lives in fixed-size pages, every access moves whole pages, and the cost of
// an operation is the number of pages it touches, weighted by the medium.
//
// A Device counts page reads and writes and feeds them into a rum.Meter so
// that read and write amplification of page-based access methods fall out of
// the accounting automatically. A BufferPool models the MEM parameter of
// Table 1: pages cached in the pool are served without device traffic.
package storage

import (
	"errors"
	"fmt"

	"repro/internal/rum"
)

// PageID identifies a page on a Device. Zero is a valid page.
type PageID uint32

// InvalidPage is a sentinel PageID used for "no page".
const InvalidPage = PageID(^uint32(0))

// Medium describes the simulated storage technology. It sets relative access
// costs, used to produce the paper's observation that different hardware
// shifts RUM priorities (flash penalizes writes, disk penalizes random reads).
type Medium int

const (
	// RAM has symmetric, cheap accesses.
	RAM Medium = iota
	// SSD reads cheaply but pays a write penalty (flash asymmetry, §2).
	SSD
	// HDD pays a large cost on every page access (seek-dominated).
	HDD
	// SMR models shingled disks: HDD reads, very expensive random writes.
	SMR
	// MQSSD is a multi-queue NVMe SSD: per-page service times identical to
	// SSD, but with internal channel parallelism, so batched submissions
	// amortize their service time across the achieved queue depth (see
	// CostModel). Depth-1 traffic prices exactly like SSD.
	MQSSD
)

// String names the medium.
func (m Medium) String() string {
	switch m {
	case RAM:
		return "ram"
	case SSD:
		return "ssd"
	case HDD:
		return "hdd"
	case SMR:
		return "smr"
	case MQSSD:
		return "mqssd"
	default:
		// Invalid media cannot reach a Device (NewDevice panics), but the
		// diagnostic form is kept for error paths that print a raw value.
		return fmt.Sprintf("medium(%d)", int(m))
	}
}

// DeviceStats aggregates the traffic a Device has served.
type DeviceStats struct {
	PageReads      uint64
	PageWrites     uint64
	PagesAllocated uint64
	PagesFreed     uint64
	CostUnits      uint64 // medium-weighted access cost
	// Batches counts batch submissions charged at depth (ReadBatch and
	// WriteBatch calls that took the amortized path); BatchedPages is the
	// pages they carried. Per-page traffic within batches still counts in
	// PageReads/PageWrites.
	Batches      uint64
	BatchedPages uint64
}

// Errors returned by Device operations.
var (
	ErrBadPage  = errors.New("storage: invalid page id")
	ErrFreed    = errors.New("storage: page already freed")
	ErrInjected = errors.New("storage: injected fault")
	// ErrTransient marks an injected fault as retryable: a repeated attempt
	// may succeed (the buffer pool's retry budget only retries these). It
	// wraps ErrInjected, so errors.Is(err, ErrInjected) also holds.
	ErrTransient = fmt.Errorf("%w (transient)", ErrInjected)
	// ErrCrash is the crash sentinel: once an injected fault wraps it, the
	// device latches into the crashed state and every subsequent Read,
	// Write, and Free fails with it until Reopen is called. It simulates
	// the process dying at that instant — whatever was not yet written to
	// the device (dirty buffer-pool frames, in-memory metadata) is lost.
	ErrCrash = errors.New("storage: device crashed")
)

// FaultInjector decides, per device operation, whether to inject a failure.
// The canonical implementation is internal/faults.Injector, a deterministic
// seed-driven scheduler; tests may supply their own. An injector is
// single-owner like the Device it is armed on: it is consulted from the
// device's goroutine only, and never shared between run cells.
type FaultInjector interface {
	// ReadFault is consulted once per page read. A non-nil error fails the
	// read (no traffic is counted). Errors wrapping ErrTransient are
	// retryable; errors wrapping ErrCrash latch the device.
	ReadFault(id PageID) error
	// WriteFault is consulted once per page write. A non-nil error fails
	// the write; torn > 0 additionally persists the first torn bytes of
	// the page image before failing — a torn (partial) page write. torn is
	// ignored when err is nil.
	WriteFault(id PageID, pageSize int) (torn int, err error)
}

// Device is a simulated page-granular storage device. It is the single point
// through which page-based access methods touch data, so its counters are the
// ground truth for read and write amplification.
//
// A Device is single-writer: its mutating and metering entry points are not
// safe for concurrent use, and the parallel bench runner relies on every run
// cell constructing (or Cloning) its own Device rather than sharing one —
// sharing would corrupt the meter and stats silently. Builds with
// -tags racecheck bind each Device to the first goroutine that touches it
// and panic on use from any other. Concurrent readers are supported only
// through PageView (see view.go): an immutable capture of the page table
// that MVCC structures hand to snapshot readers, guarded in racecheck builds
// by per-page generation stamps instead of the goroutine binding.
type Device struct {
	owner    owner
	gen      pagegen
	pageSize int
	pages    [][]byte
	class    []rum.Class
	live     []bool
	// unwritten marks the live pages Alloc recycled that no write has reached
	// yet: their buffers still hold a freed page's bytes. The read kernel
	// clears such a page before lending it, a write clears the mark, so an
	// allocated page reads as zeros without Alloc clearing it.
	unwritten []bool
	freeList  []PageID
	// retired marks the pages a write failed on permanently (a fault neither
	// transient nor a crash): Free keeps them off freeList.
	retired  map[PageID]bool
	stats    DeviceStats
	meter    *rum.Meter
	model    CostModel
	injector FaultInjector
	crashed  bool
	hook     Hook
}

// NewDevice creates a device with the given page size and medium, feeding its
// traffic into meter. A nil meter is replaced with a private one. An unknown
// medium panics: a silently-wrong cost ledger is worse than a crash at
// construction time.
func NewDevice(pageSize int, medium Medium, meter *rum.Meter) *Device {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	if !medium.valid() {
		panic(fmt.Sprintf("storage: invalid medium %d (want RAM/SSD/HDD/SMR/MQSSD)", int(medium)))
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Device{
		pageSize: pageSize,
		retired:  make(map[PageID]bool),
		meter:    meter,
		model:    medium.Model(),
	}
}

// SetInjector arms (or, with nil, disarms) a fault injector. The injector is
// consulted on every subsequent Read, Write, and Replace.
func (d *Device) SetInjector(inj FaultInjector) { d.injector = inj }

// Injector returns the currently armed fault injector, or nil.
func (d *Device) Injector() FaultInjector { return d.injector }

// Crashed reports whether the device is latched in the crashed state.
func (d *Device) Crashed() bool { return d.crashed }

// Reopen clears the crash latch, simulating a process restart against the
// surviving device image. Page contents, allocation state, and traffic
// counters are untouched; the injector stays armed (callers that want a
// clean post-crash device also call SetInjector(nil)).
func (d *Device) Reopen() { d.crashed = false }

// SetHook attaches (or, with nil, detaches) the storage stack's observer:
// it receives the device's page and batch events and the events of every
// BufferPool over the device.
func (d *Device) SetHook(h Hook) { d.hook = h }

// fail is the single exit for every injected failure: it classifies err,
// latches the crash state when err wraps ErrCrash, emits the matching hook
// event(s), and returns the error annotated with the operation. cost is the
// medium-weighted cost of the attempted operation — the event carries what
// the failure cost, even though the failed transfer counts no traffic in
// stats or the meter (the hook event is its only trace). torn > 0 marks a
// torn write (that many bytes persisted before the failure): the event is
// EvTorn, followed by EvCrash when the tear was also the crash point.
func (d *Device) fail(err error, op string, id PageID, torn int, cost uint64) error {
	crash := errors.Is(err, ErrCrash)
	if crash {
		d.crashed = true
	}
	if torn > 0 {
		if d.hook != nil {
			d.hook.StorageEvent(EvTorn, id, d.class[id], cost)
			if crash {
				d.hook.StorageEvent(EvCrash, id, d.class[id], cost)
			}
		}
		return fmt.Errorf("%w: torn %s of page %d (%d/%d bytes persisted)",
			err, op, id, torn, d.pageSize)
	}
	if d.hook != nil {
		ev := EvFault
		if crash {
			ev = EvCrash
		}
		d.hook.StorageEvent(ev, id, d.class[id], cost)
	}
	return fmt.Errorf("%w: %s of page %d", err, op, id)
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// CostModel returns the pricing model the device charges traffic under.
func (d *Device) CostModel() CostModel { return d.model }

// Meter returns the rum.Meter the device reports traffic to.
func (d *Device) Meter() *rum.Meter { return d.meter }

// Stats returns a copy of the device traffic counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// LivePages returns the number of currently allocated pages.
func (d *Device) LivePages() int {
	return int(d.stats.PagesAllocated - d.stats.PagesFreed)
}

// LivePageIDs returns the ids of all currently allocated pages in ascending
// order. Recovery code uses it to scan the surviving image after a crash.
func (d *Device) LivePageIDs() []PageID {
	ids := make([]PageID, 0, d.LivePages())
	for id, alive := range d.live {
		if alive {
			ids = append(ids, PageID(id))
		}
	}
	return ids
}

// Alloc allocates a page of the given data class and returns its id. The page
// reads as zeros until it is first written. A recycled id is not cleared here:
// it is marked unwritten, and the zeros materialize at its first read, so a
// page whose first transfer is a full write never pays for them.
func (d *Device) Alloc(c rum.Class) PageID {
	d.owner.assert("Device")
	d.stats.PagesAllocated++
	if n := len(d.freeList); n > 0 {
		id := d.freeList[n-1]
		d.freeList = d.freeList[:n-1]
		d.unwritten[id] = true
		d.class[id] = c
		d.live[id] = true
		return id
	}
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, d.pageSize))
	d.class = append(d.class, c)
	d.live = append(d.live, true)
	d.unwritten = append(d.unwritten, false)
	d.gen.grow(len(d.pages))
	return id
}

// Free releases a page back to the device; a retired page, one a write failed
// on permanently, is never handed out again. After a crash Free fails with
// ErrCrash: the surviving image is evidence for recovery, and a structure
// must not be able to release pages it no longer remembers owning. (Alloc
// stays available post-crash — recovery legitimately allocates, and any
// orphaned pages it abandons are garbage-collected by the reopened
// structure.)
func (d *Device) Free(id PageID) error {
	d.owner.assert("Device")
	if d.crashed {
		return fmt.Errorf("%w: free of page %d", ErrCrash, id)
	}
	if err := d.check(id); err != nil {
		return err
	}
	d.live[id] = false
	if !d.retired[id] {
		d.freeList = append(d.freeList, id)
	}
	d.stats.PagesFreed++
	d.gen.bump(id)
	return nil
}

func (d *Device) check(id PageID) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	if !d.live[id] {
		return fmt.Errorf("%w: %d", ErrFreed, id)
	}
	return nil
}

// Read returns the contents of a page, counting one page read. The returned
// slice aliases device memory and is read-only: callers must copy it if they
// intend to keep it across a Write to the same page (which changes it in
// place) or a Replace (after which it is no longer the page's image).
func (d *Device) Read(id PageID) ([]byte, error) {
	ids, out := [1]PageID{id}, [1][]byte{}
	_, err := d.readBatchInto(ids[:], out[:])
	return out[0], err // nil where the read failed
}

// Write replaces the contents of a page, counting one page write. data must
// be exactly one page long; the device copies it, so the caller keeps data.
func (d *Device) Write(id PageID, data []byte) error {
	ids, images := [1]PageID{id}, [1][]byte{data}
	_, err := d.writeBatch(ids[:], images[:], false)
	return err
}

// Replace is Write without the copy: image itself becomes the page's image
// and the previous buffer is returned, the caller's to reuse. Its contents
// are unspecified: the previous image, or, for a page allocated and never
// written, whatever a freed page left there. From then on image belongs to
// the device — the caller may keep reading it (it is what Read returns) but
// must not write it. The buffer pool writes back the dirty frames it owns
// this way. On failure nothing changes hands (a torn write tears the previous
// image, as Write's does).
func (d *Device) Replace(id PageID, image []byte) (prev []byte, err error) {
	ids, images := [1]PageID{id}, [1][]byte{image}
	if _, err := d.writeBatch(ids[:], images[:], true); err != nil {
		return nil, err
	}
	return images[0], nil
}

// batchable reports whether n pages submitted together are charged as one
// batch: amortized at the achieved depth, with a batch event. It depends on
// the width and the medium only. Faults do not enter into it: the kernels
// stop a submission at its first failed page whatever its charge, so a batch
// fails as the same pages written one by one would.
func (d *Device) batchable(n int) bool {
	return n > 1 && d.model.Channels > 1
}

// reach is the step every page of a submission takes before it may move: the
// crash latch, then the page's validity. It builds no error itself, so the
// kernels inline it.
func (d *Device) reach(op string, id PageID) error {
	if d.crashed || int(id) >= len(d.live) || !d.live[id] {
		return d.unreachable(op, id)
	}
	return nil
}

// unreachable is reach's error: the crash latch's, or check's.
func (d *Device) unreachable(op string, id PageID) error {
	if d.crashed {
		return fmt.Errorf("%w: %s of page %d", ErrCrash, op, id)
	}
	return d.check(id)
}

// charge counts the pages a submission reached, in submission order: the
// stats, the meter and one event per page, whose costs sum to the charge.
// Where the pages are batchable the charge is the batch's amortized cost and
// a batch event follows; otherwise it is the per-page cost each, exactly the
// pages' sequential charge.
func (d *Device) charge(ids []PageID, write bool) {
	n := len(ids)
	if n == 0 {
		return
	}
	ev, share := EvRead, d.model.PageCost(write)
	if write {
		d.stats.PageWrites += uint64(n)
		ev = EvWrite
	} else {
		d.stats.PageReads += uint64(n)
	}
	cost, extra := share*uint64(n), 0
	batch := d.batchable(n)
	if batch {
		cost = d.model.BatchCost(n, write)
		share, extra = cost/uint64(n), int(cost%uint64(n))
		d.stats.Batches++
		d.stats.BatchedPages += uint64(n)
	}
	d.stats.CostUnits += cost
	for i, id := range ids {
		c := d.class[id]
		if write {
			d.meter.CountWrite(c, d.pageSize)
		} else {
			d.meter.CountRead(c, d.pageSize)
		}
		if d.hook != nil {
			s := share
			if i < extra {
				s++
			}
			d.hook.StorageEvent(ev, id, c, s)
		}
	}
	if batch && d.hook != nil {
		d.hook.StorageBatch(write, n, d.model.Depth(n), cost)
	}
}

// zeroUnwritten gives a page Alloc recycled the zeros it reads as, the first
// time something must see its bytes: a read, or a torn write's prefix.
func (d *Device) zeroUnwritten(id PageID) {
	if d.unwritten[id] {
		clear(d.pages[id])
		d.unwritten[id] = false
	}
}

// ReadBatch reads every page in ids as one submission and returns their
// images, which alias device memory like Read's. On a multi-queue medium the
// pages are charged CostModel.BatchCost — the service time amortized across
// the achieved queue depth — instead of n sequential reads: per-page EvRead
// events carry cost shares that sum exactly to the batch cost, and one
// StorageBatch hook call carrying the achieved depth follows them. On flat
// media it is exactly equivalent to calling Read per page. The pages are
// read in order up to the first that fails (a freed or invalid page, an
// injected fault, the crash latch): the returned images are those the
// submission reached, charged as if the batch had been those pages alone.
func (d *Device) ReadBatch(ids []PageID) ([][]byte, error) {
	out := make([][]byte, len(ids))
	n, err := d.readBatchInto(ids, out)
	return out[:n], err
}

// readBatchInto is the one read kernel: ReadBatch writing the page images
// into out, which must be as long as ids, and returning how many pages it
// reached. The buffer pool's readahead passes its own scratch.
func (d *Device) readBatchInto(ids []PageID, out [][]byte) (n int, err error) {
	d.owner.assert("Device")
	var fault error
	for ; n < len(ids); n++ {
		id := ids[n]
		if err = d.reach("read", id); err != nil {
			break
		}
		if d.injector != nil {
			if fault = d.injector.ReadFault(id); fault != nil {
				break
			}
		}
		d.zeroUnwritten(id)
		out[n] = d.pages[id]
	}
	d.charge(ids[:n], false)
	if fault != nil {
		return n, d.fail(fault, "read", ids[n], 0, d.model.ReadCost)
	}
	return n, err
}

// WriteBatch writes data[i] to ids[i] as one submission, with ReadBatch's
// charging rule: amortized at the achieved depth on multi-queue media,
// exactly equivalent to per-page Write calls on flat media. Every data slice
// must be exactly one page; the device copies them, so one buffer may be
// written to many pages. The pages are written in order up to the first that
// fails: those before it are written and charged as a batch of their own, a
// torn write tears that page alone, and the pages after it are untouched
// (ReplaceBatch reports how many were reached).
func (d *Device) WriteBatch(ids []PageID, data [][]byte) error {
	_, err := d.writeBatch(ids, data, false)
	return err
}

// ReplaceBatch is WriteBatch without the copies, as Replace is to Write: each
// images[i] becomes the image of ids[i], and images[i] is overwritten with
// the page's previous buffer, whose contents are unspecified as Replace's
// are. It returns how many pages changed hands: all of them, or the leading n
// before the page that failed, whose image stays the caller's.
func (d *Device) ReplaceBatch(ids []PageID, images [][]byte) (n int, err error) {
	return d.writeBatch(ids, images, true)
}

// writeBatch is the one write kernel. Page by page it checks the target and
// the length, consults the injector (a torn write persists its prefix here,
// over zeros if the page was never written) and then either copies data[i]
// in or swaps it with the page's image; either way the page is written. It
// charges the pages it wrote and returns their number; a page whose write
// failed permanently is retired (Free).
func (d *Device) writeBatch(ids []PageID, data [][]byte, swap bool) (n int, err error) {
	d.owner.assert("Device")
	if len(ids) != len(data) {
		return 0, fmt.Errorf("storage: batch write of %d pages with %d images", len(ids), len(data))
	}
	var fault error
	torn := 0
	for ; n < len(ids); n++ {
		id := ids[n]
		if err = d.reach("write", id); err != nil {
			break
		}
		if len(data[n]) != d.pageSize {
			err = fmt.Errorf("storage: write of %d bytes to page of %d", len(data[n]), d.pageSize)
			break
		}
		if d.injector != nil {
			if torn, fault = d.injector.WriteFault(id, d.pageSize); fault != nil {
				// Torn write: a prefix of the page image reached the medium
				// before the failure.
				torn = min(torn, d.pageSize)
				if torn > 0 {
					d.zeroUnwritten(id)
					copy(d.pages[id][:torn], data[n][:torn])
				}
				break
			}
		}
		d.unwritten[id] = false
		if swap {
			data[n], d.pages[id] = d.pages[id], data[n]
		} else {
			copy(d.pages[id], data[n])
		}
	}
	d.charge(ids[:n], true)
	if fault != nil {
		if !errors.Is(fault, ErrTransient) && !errors.Is(fault, ErrCrash) {
			d.retired[ids[n]] = true
		}
		// The head did move, so the fault's event carries the write cost,
		// but the failed write counts no stats or meter traffic.
		return n, d.fail(fault, "write", ids[n], torn, d.model.WriteCost)
	}
	return n, err
}

// Class returns the data class a page was allocated under.
func (d *Device) Class(id PageID) rum.Class {
	if int(id) >= len(d.class) {
		return rum.Aux
	}
	return d.class[id]
}
