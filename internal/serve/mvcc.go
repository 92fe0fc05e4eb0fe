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
// it once per sub-batch into the shard's readMeter, an AtomicMeter. The
// shard's ledger is its structure's own meter plus readMeter, read on the
// shard goroutine: every byte is counted exactly once, whichever snapshot
// served it.
//
// Liveness has one mechanism, the published version's reference count in
// storage.VersionSet. The shard holds the reference Acquire gave it on the
// snapshot it installed, until the next publish, Stop or its death swaps the
// snapshot out. A reader takes its own reference with core.Snapshot.Retain,
// which fails once the count has reached zero — the writer may be reclaiming
// the pages then — and the reader reloads the pointer, which by then holds
// the successor.
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
	"repro/internal/core"
	"repro/internal/rum"
)

// acquireSnap returns the shard's installed snapshot with a reference held,
// or nil when the shard has none (MVCC off, unsupported structure, nothing
// published yet, or the shard stopped). Lock-free: Retain fails only on a
// snapshot the shard has already swapped out and released, so the reload
// finds its successor.
func (sh *shard) acquireSnap() core.Snapshot {
	for {
		p := sh.cur.Load()
		if p == nil {
			return nil
		}
		if (*p).Retain() {
			return *p
		}
	}
}

// publishSnap (shard goroutine only) publishes the structure's current
// state and installs it for readers. A structure without snapshot support
// turns the MVCC path off for this shard on the first attempt; reads then
// flow through the mailbox as before.
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
	sh.install(&cs)
	sh.writesSince = 0
}

// install makes p (nil: none) the snapshot readers pick up, and drops the
// shard's reference on the one it replaces; readers that retained that one
// keep it readable until they release it.
func (sh *shard) install(p *core.Snapshot) {
	if old := sh.cur.Swap(p); old != nil {
		(*old).Release()
	}
}

// ledgerMeter (shard goroutine only) is the shard's full RUM ledger: the
// structure's own meter plus the traffic snapshot readers merged. Monotone
// across calls — both terms only grow.
func (sh *shard) ledgerMeter(am *core.Instrumented) rum.Meter {
	m := am.Meter().Snapshot()
	m.Add(sh.readMeter.Snapshot())
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
	snaps := make([]core.Snapshot, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.acquireSnap()
		if snaps[i] == nil {
			for _, cs := range snaps[:i] {
				cs.Release()
			}
			s.mu.RUnlock()
			return 0, false
		}
	}
	s.mu.RUnlock()

	s.readersActive.Add(1)
	defer s.readersActive.Add(-1)
	var all []core.Record
	var m rum.Meter
	for i, cs := range snaps {
		cs.RangeScan(lo, hi, &m, func(k core.Key, v core.Value) bool {
			all = append(all, core.Record{Key: k, Value: v})
			return true
		})
		cs.Release()
		s.shards[i].readMeter.Merge(m)
		m.Reset()
		s.shards[i].bypassOps.Add(1)
	}
	return emitSorted(all, emit), true
}
