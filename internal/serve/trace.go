package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Request lifecycle tracing. With a TraceConfig in the server's Config,
// every Do call stamps its mailbox messages at enqueue and each shard
// decomposes every operation it executes into queue wait (enqueue to
// execution start: mailbox wait plus in-batch wait behind earlier ops of the
// same message) and service time (the op's own execution). All three numbers
// derive from the same monotonic clock readings, so
//
//	Total = Queue + Service
//
// holds exactly, not within tolerance — the serve tests assert it with ==.
//
// The decomposition flows to three sinks, all owned shard-side under the
// same single-owner contract as the structures themselves:
//
//   - a per-shard obs.PhaseRecorder (queue/service/batch histograms plus
//     per-bucket exemplars), published as ShardReport.Phases through the
//     usual snapshot edges;
//   - a server-wide obs.SlowLog flight recorder retaining the slowest-K
//     recent traces;
//   - the storage hook, when the builder threads the recorder into the
//     shard's stack, which attributes pages/faults/retries to each op.
//
// What tracing costs per operation: one monotonic clock reading (each op's
// end is the next op's start), two histogram increments whose bucket is a
// bit length, five words of ledger and meter baseline read in place, and two
// admission gates evaluated on integers — the exemplar slot of the op's
// service bucket and the flight recorder's floor (one atomic load). The
// obs.SlowTrace itself — meter delta, device work, op name, wall-clock
// instant — is assembled only for an op that passes a gate, which after
// warm-up is a record-slow op. Every op is timed; none is sampled.
//
// With Trace nil nothing changes: no clock is read, nothing allocates, and
// the only cost on the hot path is one nil check per message — a property
// pinned by BenchmarkDo in trace_test.go.

// TraceConfig enables request lifecycle tracing. The zero value of every
// field selects a default.
type TraceConfig struct {
	// SlowK is the flight-recorder capacity: the number of slowest recent
	// traces retained (default 64).
	SlowK int
	// SlowTTL makes retained traces older than this evictable by any newer
	// trace, so a startup burst cannot freeze the recorder (default 0: pure
	// slowest-K, deterministic, what tests use).
	SlowTTL time.Duration
	// Recorder, when set, supplies shard i's PhaseRecorder. It runs on the
	// shard's own goroutine immediately before Config.Build, so a caller can
	// stash the recorder where its Build closure finds it and thread it into
	// the storage stack as a hook — same goroutine, no race. Nil (or a nil
	// return) means the shard builds its own private recorder.
	Recorder func(shard int) *obs.PhaseRecorder
}

func (tc *TraceConfig) slowK() int {
	if tc.SlowK <= 0 {
		return 64
	}
	return tc.SlowK
}

// traceClock is a server's time base for tracing: an epoch read once, wall
// and monotonic, after which an instant is the monotonic time elapsed since
// it — half the cost of time.Now, which reads both clocks. Wall-clock
// instants are derived from the epoch only for the traces that are kept.
type traceClock struct {
	epoch     time.Time
	epochUnix int64 // epoch.UnixNano()
}

func newTraceClock() traceClock {
	epoch := time.Now()
	return traceClock{epoch: epoch, epochUnix: epoch.UnixNano()}
}

func (c *traceClock) now() time.Duration { return time.Since(c.epoch) }

// applyOpsTraced is apply's kindOps loop with the clock on: the same Exec
// per request plus N+1 clock readings per message (one before the
// batch, one after each op — each op's end is the next op's start).
func (sh *shard) applyOpsTraced(am *core.Instrumented, msg message) {
	rec, slow, clock := sh.rec, sh.slow, &sh.clock
	batch := len(msg.idxs)
	rec.RecordBatch(batch)
	m := am.Meter()
	enq := msg.enqueuedAt
	start := clock.now()
	for _, i := range msg.idxs {
		req := &msg.reqs[i]
		rec.BeginOpWork()
		preRead, preWritten := m.BaseRead+m.AuxRead, m.BaseWritten+m.AuxWritten
		msg.res[i] = Exec(am, *req)
		end := clock.now()
		queue, service, total := start-enq, end-start, end-enq
		at := clock.epochUnix + int64(end)
		bucket, exemplar := rec.ObserveOp(queue, service, total, at)
		retain := slow.Admits(total, at)
		if exemplar || retain {
			pages, faults, retries := rec.OpWork()
			t := obs.SlowTrace{
				At: clock.epoch.Add(end), Shard: sh.id, Op: req.Op.String(), Key: uint64(req.Key),
				Batch: batch,
				Queue: queue, Service: service, Total: total,
				ReadBytes:  m.BaseRead + m.AuxRead - preRead,
				WriteBytes: m.BaseWritten + m.AuxWritten - preWritten,
				Pages:      pages, Faults: faults, Retries: retries,
			}
			if exemplar {
				rec.SetExemplar(bucket, &t)
			}
			if retain {
				slow.Offer(t)
			}
		}
		start = end
	}
}

// SlowTraces returns the flight recorder's retained traces, slowest first.
// It is lock-free and safe to call at any time — concurrently with traffic,
// after Stop, and against a server whose shards have died. Without tracing
// it returns nil.
func (s *Server) SlowTraces() []obs.SlowTrace {
	if s.slow == nil {
		return nil
	}
	return s.slow.Snapshot()
}

// MailboxDepths reports each shard's current mailbox occupancy in messages —
// the instantaneous queue-depth gauge behind the queue-wait histogram. Safe
// from any goroutine at any time.
func (s *Server) MailboxDepths() []int {
	d := make([]int, len(s.shards))
	for i, sh := range s.shards {
		d[i] = len(sh.mailbox)
	}
	return d
}

// AggregatePhases merges the per-shard phase snapshots of a report set into
// one server-wide snapshot (nil when no shard carried one — tracing off or
// every traced shard dead). The inputs are not mutated.
func AggregatePhases(reports []ShardReport) *obs.PhaseSnapshot {
	var agg *obs.PhaseSnapshot
	for i := range reports {
		p := reports[i].Phases
		if p == nil {
			continue
		}
		if agg == nil {
			agg = p.Clone()
		} else {
			agg.Merge(p)
		}
	}
	return agg
}
