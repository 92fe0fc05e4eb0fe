// MVCC read path for the serving layer: single-writer/many-reader shards
// with lock-free concurrent readers.
//
// When Config.Snapshots is on, each shard publishes epoch-stamped immutable
// snapshots of its structure (core.SnapshotReader) and installs the newest
// one in an atomic pointer. A Do call whose sub-batch for a shard is pure
// reads acquires that snapshot with one CAS and executes the reads on the
// client's own goroutine — no mailbox message, no channel hop, no lock. The
// calling clients are the reader pool: N concurrent client goroutines read N
// snapshots with zero coordination while the shard goroutine keeps writing.
//
// The single-owner contract of the storage stack is preserved by
// construction: readers touch only the snapshot (frozen state plus a
// storage.PageView over raw device pages) and never call into the structure,
// the buffer pool, or the device. The -tags racecheck build enforces both
// halves — goroutine binding for the writer, page-generation stamps for the
// readers.
//
// Exact RUM accounting is preserved by meter handoff. Each reader charges a
// stack-local plain rum.Meter (no shared state on the hot path), then merges
// it once per sub-batch into the snapshot's AtomicMeter. The shard goroutine
// is the only absorber: when a snapshot is superseded and its reference
// count drains to zero, the shard folds the AtomicMeter into its own ledger
// (snapMeter) and releases the structure-level snapshot. Reports therefore
// see every byte exactly once: live structure meter + absorbed reader
// traffic + still-live snapshots' atomic meters, all read on the shard
// goroutine.
//
// Freshness is governed by Config.StalenessOps. The default (1) republishes
// after every write-carrying message, before that message's completion
// fires; the happens-before edge through the completion channel then gives
// read-your-writes across Do calls — a client that finished a write call is
// guaranteed to observe it in its next snapshot read. Larger values
// amortize publish cost over up to StalenessOps writes and give up that
// guarantee, bounding staleness by op count instead.
package serve

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rum"
)

// shardSnap is one published snapshot in the reader-visible chain. refs
// counts the writer's installation reference (held until the snapshot is
// superseded) plus one per in-flight reader; the snapshot is absorbable once
// it is out of the pointer and refs reaches zero.
type shardSnap struct {
	snap  core.Snapshot
	epoch uint64
	meter rum.AtomicMeter
	refs  atomic.Int64
}

// acquireSnap takes a reference on the shard's current snapshot, or returns
// nil when the shard has none (MVCC off, unsupported structure, or nothing
// published yet). Lock-free: the CAS-from-nonzero loop refuses to resurrect
// a snapshot whose count already drained — zero means the writer may be
// absorbing it right now — and reloads the pointer instead, which by then
// holds the successor.
func (sh *shard) acquireSnap() *shardSnap {
	for {
		ss := sh.cur.Load()
		if ss == nil {
			return nil
		}
		r := ss.refs.Load()
		if r == 0 {
			continue
		}
		if ss.refs.CompareAndSwap(r, r+1) {
			return ss
		}
	}
}

// publishSnap (shard goroutine only) publishes the structure's current
// state and installs it for readers, retiring the previous snapshot. A
// structure without snapshot support turns the MVCC path off for this shard
// on the first attempt; reads then flow through the mailbox as before.
func (sh *shard) publishSnap(am *core.Instrumented) {
	if err := am.Publish(); err != nil {
		sh.snapEvery = 0
		return
	}
	cs := am.Acquire()
	if cs == nil {
		sh.snapEvery = 0
		return
	}
	sh.snapVersions = am.SnapshotStats().Versions
	ns := &shardSnap{snap: cs, epoch: cs.Epoch()}
	ns.refs.Store(1) // the installation reference
	if old := sh.cur.Swap(ns); old != nil {
		old.refs.Add(-1)
		sh.retiredSnaps = append(sh.retiredSnaps, old)
	}
	sh.writesSince = 0
	sh.sweepSnaps(false)
}

// sweepSnaps (shard goroutine only) absorbs retired snapshots whose readers
// have all left: their reader-charged AtomicMeters fold into the shard
// ledger and the structure-level snapshot is released, unpinning its pages
// for epoch reclamation. final (Stop path, after every client call has
// returned by contract) absorbs unconditionally.
func (sh *shard) sweepSnaps(final bool) {
	keep := sh.retiredSnaps[:0]
	for _, rs := range sh.retiredSnaps {
		if !final && rs.refs.Load() != 0 {
			keep = append(keep, rs)
			continue
		}
		sh.snapMeter.Add(rs.meter.Snapshot())
		rs.snap.Release()
	}
	for i := len(keep); i < len(sh.retiredSnaps); i++ {
		sh.retiredSnaps[i] = nil
	}
	sh.retiredSnaps = keep
}

// shutdownSnaps (shard goroutine only) uninstalls the current snapshot and
// absorbs the whole chain; called after the mailbox closes, when no reader
// can still be in flight.
func (sh *shard) shutdownSnaps() {
	if cur := sh.cur.Swap(nil); cur != nil {
		cur.refs.Add(-1)
		sh.retiredSnaps = append(sh.retiredSnaps, cur)
	}
	sh.sweepSnaps(true)
}

// ledgerMeter (shard goroutine only) is the shard's full RUM ledger: the
// structure's own meter, reader traffic absorbed from dead snapshots, and
// the still-live snapshots' atomic meters. Monotone across calls — absorbing
// moves a snapshot's total from one term to another without changing the
// sum, and AtomicMeters only grow.
func (sh *shard) ledgerMeter(am *core.Instrumented) rum.Meter {
	m := am.Meter().Snapshot()
	m.Add(sh.snapMeter)
	for _, rs := range sh.retiredSnaps {
		m.Add(rs.meter.Snapshot())
	}
	if cur := sh.cur.Load(); cur != nil {
		m.Add(cur.meter.Snapshot())
	}
	return m
}

// noteWrites (shard goroutine only) advances the publish cadence after a
// message that applied n writes and republishes when the staleness budget is
// spent. Runs before the message's completion fires, which is what makes
// StalenessOps=1 read-your-writes.
func (sh *shard) noteWrites(am *core.Instrumented, n int) {
	if sh.snapEvery <= 0 || n == 0 {
		return
	}
	sh.writesSince += n
	if sh.writesSince >= sh.snapEvery {
		sh.publishSnap(am)
	}
}

// ReaderStats reports the MVCC read path's counters: bypass readers active
// right now, and the total operations served from snapshots since start.
// Both are zero when Config.Snapshots is off.
func (s *Server) ReaderStats() (active int64, ops uint64) {
	for _, sh := range s.shards {
		ops += sh.bypassOps.Load()
	}
	return s.readersActive.Load(), ops
}

// snapshotScan serves a broadcast range scan entirely from snapshots on the
// caller's goroutine, reporting ok=false (and acquiring nothing net) when
// any shard lacks one — the caller then falls back to the mailbox path.
// Like Snapshot, the cut is per-shard-consistent, not global: each shard
// contributes its latest published epoch.
func (s *Server) snapshotScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) (int, bool) {
	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return 0, false
	}
	sss := make([]*shardSnap, len(s.shards))
	for i, sh := range s.shards {
		ss := sh.acquireSnap()
		if ss == nil {
			for j := 0; j < i; j++ {
				sss[j].refs.Add(-1)
			}
			s.mu.RUnlock()
			return 0, false
		}
		sss[i] = ss
	}
	s.mu.RUnlock()

	s.readersActive.Add(1)
	defer s.readersActive.Add(-1)
	var all []core.Record
	var m rum.Meter
	for i, ss := range sss {
		ss.snap.RangeScan(lo, hi, &m, func(k core.Key, v core.Value) bool {
			all = append(all, core.Record{Key: k, Value: v})
			return true
		})
		ss.meter.Merge(m)
		m.Reset()
		ss.refs.Add(-1)
		s.shards[i].bypassOps.Add(1)
	}
	return emitSorted(all, emit), true
}
