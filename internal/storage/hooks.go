package storage

import "repro/internal/rum"

// Event identifies one kind of physical storage event, emitted by a Device,
// or by the BufferPool over it, to the device's Hook. Together the events
// let an observer attribute every physical page touch — and its
// medium-weighted cost — to the logical operation that caused it.
type Event uint8

const (
	// EvRead is a device page read.
	EvRead Event = iota
	// EvWrite is a device page write (including in-place writes).
	EvWrite
	// EvHit is a buffer pool hit: the page was served without device traffic.
	EvHit
	// EvMiss is a buffer pool miss; the device read that repaired it
	// arrives as a separate EvRead, emitted just before the miss (the pool
	// only counts a miss once the read succeeded and the frame installs —
	// failed fetches count in PoolStats.FetchFailures instead).
	EvMiss
	// EvEvict is a buffer pool eviction of an unpinned frame.
	EvEvict
	// EvWriteBack is a dirty frame flushed to the device; the underlying
	// device write also arrives as EvWrite.
	EvWriteBack
	// EvFault is a device operation failed by an injected fault (see
	// FaultInjector); the failed operation counts no traffic, so the event
	// is the only visible trace of it.
	EvFault
	// EvTorn is a torn page write: an injected write fault that persisted
	// only a prefix of the page before failing. The cost carried by the
	// event is the medium write cost (the device did move the head), but
	// neither stats nor meters count the failed write.
	EvTorn
	// EvCrash is the crash sentinel firing: the device latches into the
	// crashed state and every subsequent operation fails with ErrCrash.
	EvCrash
	// EvRetry is a buffer pool retry of a device operation that failed with
	// a transient injected fault (see BufferPool.SetRetryBudget).
	EvRetry
)

// String names the event as used in exported metrics.
func (e Event) String() string {
	switch e {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvHit:
		return "hit"
	case EvMiss:
		return "miss"
	case EvEvict:
		return "eviction"
	case EvWriteBack:
		return "writeback"
	case EvFault:
		return "fault"
	case EvTorn:
		return "torn"
	case EvCrash:
		return "crash"
	case EvRetry:
		return "retry"
	default:
		return "unknown"
	}
}

// Hook observes physical storage events. A storage stack has one, set on its
// Device (SetHook); the BufferPool over the device reports through it too, so
// pool and device events arrive as one sequence. Implementations must be
// cheap and must not call back into the emitting Device or BufferPool. A nil
// hook is the default and costs a single pointer comparison per event site,
// keeping the untraced path allocation-free.
//
// StorageEvent's cost is the medium-weighted access cost of the event in
// abstract time units (0 for pool-level events such as hits, whose whole
// point is that they are free).
//
// StorageBatch follows each submission the device charges as a batch, with
// its page count, achieved queue depth (CostModel.Depth) and total cost. The
// batch's per-page EvRead/EvWrite events come first, in submission order,
// with cost shares summing exactly to the batch cost: an observer may treat
// StorageBatch as the batch's commit point, and totals reconcile whether or
// not it tracks batches at all.
type Hook interface {
	StorageEvent(ev Event, id PageID, class rum.Class, cost uint64)
	StorageBatch(write bool, pages, depth int, cost uint64)
}
