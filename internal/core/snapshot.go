package core

import "repro/internal/rum"

// Snapshot is an immutable point-in-time view of an access method, the unit
// of the single-writer/many-reader contract: the writer goroutine keeps
// mutating the live structure while any number of reader goroutines run Get,
// GetBatch and RangeScan against an acquired Snapshot concurrently, with zero
// coordination between them. Because what a snapshot reaches cannot change,
// a reader's independent point reads may be reordered and overlapped freely:
// GetBatch is defined by equivalence to a loop of Gets — same results, same
// meter totals — and an implementation is free in everything else.
//
// Read methods take the caller's private rum.Meter instead of charging the
// structure's own ledger: a snapshot is shared between readers, so metering
// into shared state would either race or serialize the very reads MVCC
// exists to parallelize. Each reader accumulates into its own plain Meter
// and the serving layer merges it into the shard ledger once the read is
// done — one atomic merge per reader session, not one per byte — keeping the
// RUM accounting exact.
//
// Get, GetBatch and RangeScan are safe for concurrent use from any goroutine
// (each call with its own meter). Retain and Release are safe from any
// goroutine; Release must be called exactly once per Acquire or successful
// Retain, after which that reference must not be used. It is what lets the
// writer's reclamation epoch advance past the pages this snapshot pins.
type Snapshot interface {
	// Epoch returns the write epoch the snapshot was published at. Epochs
	// are strictly increasing across publishes, so two snapshots of the same
	// structure are ordered by Epoch.
	Epoch() uint64

	// Len returns the number of live records in the snapshot.
	Len() int

	// Get returns the value for k as of the snapshot, charging physical and
	// logical read traffic to m.
	Get(k Key, m *rum.Meter) (Value, bool)

	// GetBatch is len(keys) Gets: it leaves in vals[i], oks[i] what
	// Get(keys[i], m) returns (vals[i] is 0 where oks[i] is false, so a
	// caller may reuse the buffers) and charges m exactly the totals those
	// Gets would, in whatever order suits the structure — independent point
	// reads on an immutable image may overlap. vals and oks are at least as
	// long as keys. It allocates nothing.
	GetBatch(keys []Key, vals []Value, oks []bool, m *rum.Meter)

	// RangeScan calls emit for every snapshot record with lo <= key <= hi in
	// ascending key order, stopping early if emit returns false. It returns
	// the number of records emitted and charges traffic to m.
	RangeScan(lo, hi Key, m *rum.Meter, emit func(Key, Value) bool) int

	// Retain takes another reference on a snapshot someone else holds — a
	// serving layer that installed it for readers to pick up — and reports
	// whether it got one. It fails once every reference is gone, because the
	// writer may then be recycling the pages; a failed Retain leaves nothing
	// to release. Safe from any goroutine; each successful Retain is paired
	// with one Release.
	Retain() bool

	// Release drops the caller's reference. The underlying version stays
	// readable for other holders; once every reference is gone the writer's
	// next reclamation pass may recycle the pages it pinned.
	Release()
}

// SnapshotStats describes the version state of a SnapshotReader, for
// telemetry and memory-overhead (MO) accounting.
type SnapshotStats struct {
	// Epoch is the current write epoch (the epoch the next publish stamps).
	Epoch uint64
	// Versions is the number of published versions currently retained.
	Versions int
	// RetainedBytes is the space pinned by retired-but-unreclaimed pages —
	// the MO tax paid for snapshot isolation, over and above the live
	// structure reported by Size().
	RetainedBytes uint64
}

// SnapshotReader is implemented by access methods that support MVCC snapshot
// reads. Publish, Acquire, and SnapshotStats are writer-side calls: they
// must run on the goroutine that owns the structure (the same single-writer
// discipline as every mutating call). Only the returned Snapshot's methods
// may be used from other goroutines.
type SnapshotReader interface {
	// Publish makes the current state available to subsequent Acquires as a
	// new immutable version, flushing buffered writes so the version is
	// fully materialized, and advances the write epoch. Retention is
	// bounded: publishing may retire the oldest version and reclaim pages no
	// live snapshot can reach.
	Publish() error

	// Acquire returns the newest published version with a reference held,
	// or nil if nothing has been published yet. The caller must Release it.
	Acquire() Snapshot

	// SnapshotStats reports the current version state.
	SnapshotStats() SnapshotStats
}
