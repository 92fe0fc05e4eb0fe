package serve

import "repro/internal/obs"

// Workload fingerprinting. With a WorkloadConfig in the server's Config,
// every shard owns an obs.WorkloadRecorder and records each operation it
// executes — kind and key for point ops, returned row count for scans —
// after the batch has run, in a second pass over the message's indices.
// The recorder windows the stream by op count, latches drift events, and
// publishes fingerprints through ShardReport.Workload over the same
// happens-before edges as every other shard ledger.
//
// Costs and blind spots, stated plainly:
//
//   - With Workload nil nothing changes: the only hot-path cost is one nil
//     check per message, and the batch loop itself is untouched — the
//     recording pass is a separate loop, so the unfingerprinted path is
//     allocation-identical to a build without this file (pinned by the
//     BenchmarkDo / BenchmarkDoFingerprinted pair in workload_test.go).
//   - MVCC bypass reads (Config.Snapshots) execute on client goroutines and
//     never pass through a shard mailbox, so they are NOT fingerprinted:
//     under snapshot serving the fingerprint describes mailbox traffic —
//     writes, scans, and whatever reads fall back to the mailbox. The
//     bypass ledger (ShardReport.Ops includes bypassed reads) still counts
//     them; only the mix/skew plane is blind there.
type WorkloadConfig struct {
	// WindowOps is the per-shard fingerprint window in operations
	// (default 4096). Op-count windows, not wall time, keep deterministic
	// streams byte-reproducible.
	WindowOps int
	// Keep bounds the retained fingerprint history and drift-event ring per
	// shard (default 16).
	Keep int
}

// recordOps mirrors an executed kindOps message into the shard's workload
// recorder. Runs on the shard goroutine, after the batch executed.
func (sh *shard) recordOps(msg message) {
	for _, i := range msg.idxs {
		req := &msg.reqs[i]
		sh.wrec.RecordOp(req.Op, uint64(req.Key))
	}
}

// AggregateWorkload merges the per-shard workload snapshots of a report set
// into one server-wide snapshot (nil when no shard carried one). The inputs
// are not mutated. Shard hot sets are disjoint (a key routes to one shard),
// so the merged heavy-hitter list and working-set union are exact in the
// sketch sense; window alignment is per-shard op count, not wall time.
func AggregateWorkload(reports []ShardReport) *obs.WorkloadSnapshot {
	var agg *obs.WorkloadSnapshot
	for i := range reports {
		w := reports[i].Workload
		if w == nil {
			continue
		}
		if agg == nil {
			agg = w.Clone()
		} else {
			agg.Merge(w)
		}
	}
	return agg
}
