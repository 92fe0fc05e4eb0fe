package serve

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestQuietAndTracedShardsAgree: the quiet loop sends each run of gets to
// GetBatch, the traced loop executes op by op, and the two must still be one
// program. A read90 stream and a delete-heavy one go through a quiet and a
// traced 2-shard server of btrees on pools far smaller than the trees;
// every result, every shard's meter, size and record count, and every
// shard's PoolStats must be equal.
func TestQuietAndTracedShardsAgree(t *testing.T) {
	type mix struct {
		name                string
		get, insert, update int // percentages; the rest deletes
	}
	for _, m := range []mix{{"read90", 90, 5, 3}, {"delete-heavy", 30, 30, 0}} {
		t.Run(m.name, func(t *testing.T) {
			run := func(trace *TraceConfig) ([]Result, []ShardReport, []storage.PoolStats) {
				pools := make([]*storage.BufferPool, 2)
				s := mustNew(t, Config{Shards: 2, Trace: trace, Build: func(i int) *core.Instrumented {
					pools[i] = methods.NewPool(methods.Options{PageSize: 512, PoolPages: 12}, nil)
					tr, err := btree.New(pools[i], btree.Config{})
					if err != nil {
						panic(err)
					}
					return core.Instrument(tr)
				}})
				rng := rand.New(rand.NewPCG(35, uint64(m.get)))
				recs := make([]core.Record, 3000)
				for i := range recs {
					recs[i] = core.Record{Key: core.Key(2 * i), Value: core.Value(i)}
				}
				if err := s.Preload(recs); err != nil {
					t.Fatal(err)
				}
				var out []Result
				reqs, res := make([]Request, 64), make([]Result, 64)
				for batch := 0; batch < 200; batch++ {
					for i := range reqs {
						op, p := OpDelete, rng.IntN(100)
						switch {
						case p < m.get:
							op = OpGet
						case p < m.get+m.insert:
							op = OpInsert
						case p < m.get+m.insert+m.update:
							op = OpUpdate
						}
						reqs[i] = Request{Op: op, Key: core.Key(rng.IntN(6500)), Value: core.Value(batch)}
					}
					if err := s.Do(reqs, res); err != nil {
						t.Fatal(err)
					}
					out = append(out, res...)
				}
				reports, err := s.Stop()
				if err != nil {
					t.Fatal(err)
				}
				stats := []storage.PoolStats{pools[0].Stats(), pools[1].Stats()}
				reports = ledgers(reports)
				for i := range reports {
					reports[i].Phases = nil
				}
				return out, reports, stats
			}
			quietRes, quietRep, quietPool := run(nil)
			tracedRes, tracedRep, tracedPool := run(&TraceConfig{})
			if !slices.Equal(quietRes, tracedRes) {
				for i := range quietRes {
					if quietRes[i] != tracedRes[i] {
						t.Fatalf("request %d: quiet %+v, traced %+v", i, quietRes[i], tracedRes[i])
					}
				}
			}
			if !reflect.DeepEqual(quietRep, tracedRep) {
				t.Fatalf("shard ledgers differ:\nquiet  %+v\ntraced %+v", quietRep, tracedRep)
			}
			if !slices.Equal(quietPool, tracedPool) {
				t.Fatalf("pool stats differ:\nquiet  %+v\ntraced %+v", quietPool, tracedPool)
			}
			if quietPool[0].Evictions == 0 || quietPool[1].Evictions == 0 {
				t.Fatalf("pools never evicted (%+v): the stream does not reach the out-of-cache path", quietPool)
			}
		})
	}
}

// tracedWorkload drives a mixed batch workload through s and returns the
// number of operations submitted.
func tracedWorkload(t *testing.T, s *Server, ops int) int {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 23))
	const batch = 64
	reqs := make([]Request, batch)
	res := make([]Result, batch)
	submitted := 0
	for submitted < ops {
		for i := range reqs {
			k := core.Key(rng.Uint64N(2048))
			switch rng.UintN(4) {
			case 0:
				reqs[i] = Request{Op: OpGet, Key: k}
			case 1:
				reqs[i] = Request{Op: OpInsert, Key: k, Value: rng.Uint64()}
			case 2:
				reqs[i] = Request{Op: OpUpdate, Key: k, Value: rng.Uint64()}
			case 3:
				reqs[i] = Request{Op: OpDelete, Key: k}
			}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do: %v", err)
		}
		submitted += batch
	}
	return submitted
}

// TestTraceDecomposition is the property test of the lifecycle invariant:
// for every retained trace, Total == Queue + Service exactly — all three
// durations derive from the same monotonic readings, so the equality is ==,
// not within-tolerance. It also checks the phase histograms account for
// every executed operation.
func TestTraceDecomposition(t *testing.T) {
	s := mustNew(t, Config{
		Shards: 4,
		Build:  buildSkiplist,
		Trace:  &TraceConfig{SlowK: 32},
	})
	ops := tracedWorkload(t, s, 4000)

	traces := s.SlowTraces()
	if len(traces) != 32 {
		t.Fatalf("flight recorder holds %d traces, want 32", len(traces))
	}
	for _, tr := range traces {
		if tr.Total != tr.Queue+tr.Service {
			t.Fatalf("decomposition broken: total %v != queue %v + service %v",
				tr.Total, tr.Queue, tr.Service)
		}
		if tr.Queue < 0 || tr.Service < 0 {
			t.Fatalf("negative phase: %+v", tr)
		}
		if tr.Op == "" || tr.Batch <= 0 || tr.Shard < 0 || tr.Shard >= 4 {
			t.Fatalf("malformed trace: %+v", tr)
		}
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Total > traces[i-1].Total {
			t.Fatal("SlowTraces not sorted slowest-first")
		}
	}

	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	agg := AggregatePhases(reports)
	if agg == nil {
		t.Fatal("traced run produced no phase snapshots")
	}
	if got := agg.Queue.Count(); got != uint64(ops) {
		t.Fatalf("queue histogram counts %d ops, want %d", got, ops)
	}
	if got := agg.Service.Count(); got != uint64(ops) {
		t.Fatalf("service histogram counts %d ops, want %d", got, ops)
	}
	// Every mailbox message recorded its batch size, and the sizes sum back
	// to the op count.
	if got := uint64(agg.Batch.Sum()); got != uint64(ops) {
		t.Fatalf("batch histogram sums %d ops, want %d", got, ops)
	}
	if len(agg.Exemplars) == 0 {
		t.Fatal("no exemplars retained")
	}
}

// TestTraceDisabledReportsNothing pins the disabled contract: no Phases on
// any report (the determinism tests DeepEqual ShardReports), no slow traces,
// and MailboxDepths still works as a plain gauge.
func TestTraceDisabledReportsNothing(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: buildSkiplist})
	tracedWorkload(t, s, 500)
	if got := s.SlowTraces(); got != nil {
		t.Fatalf("untraced server returned traces: %v", got)
	}
	if d := s.MailboxDepths(); len(d) != 2 {
		t.Fatalf("MailboxDepths len %d, want 2", len(d))
	}
	snaps, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, r := range snaps {
		if r.Phases != nil {
			t.Fatalf("untraced snapshot carries phases: shard %d", r.Shard)
		}
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, r := range reports {
		if r.Phases != nil {
			t.Fatalf("untraced report carries phases: shard %d", r.Shard)
		}
	}
	if AggregatePhases(reports) != nil {
		t.Fatal("AggregatePhases of untraced reports is non-nil")
	}
}

// TestTraceRecorderWiring checks the Recorder hook contract: it runs on the
// shard goroutine before Build, so a builder can thread the recorder into
// its storage stack as a hook and traces then carry per-op page counts.
func TestTraceRecorderWiring(t *testing.T) {
	recs := make([]*obs.PhaseRecorder, 2)
	s := mustNew(t, Config{
		Shards:   2,
		MaxBatch: 8,
		Trace: &TraceConfig{
			SlowK: 16,
			Recorder: func(shard int) *obs.PhaseRecorder {
				recs[shard] = obs.NewPhaseRecorder()
				return recs[shard]
			},
		},
		Build: func(shard int) *core.Instrumented {
			// Recorder ran first on this same goroutine, so the slot is set.
			if recs[shard] == nil {
				panic("Build ran before Recorder")
			}
			return methods.NewBTree(methods.Options{PoolPages: 4, Hook: recs[shard]}, btree.Config{})
		},
	})
	// Preload through the untraced bulk path, then read far more pages than
	// the 4-page pools hold, in strides of several leaves so that nearly
	// every get misses: the retained traces are gets whose misses were
	// charged through the hook, so the attribution is visible regardless of
	// which ops the flight recorder ranks slowest. (At a stride of 17 half
	// the gets hit, a miss no longer costs a page copy, and a racecheck
	// build's sixteen slowest were all hits one run in ten.)
	recs2 := make([]core.Record, 4096)
	for i := range recs2 {
		recs2[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := s.Preload(recs2); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	reqs := make([]Request, 256)
	res := make([]Result, 256)
	for round := 0; round < 4; round++ {
		for i := range reqs {
			reqs[i] = Request{Op: OpGet, Key: core.Key((i*1031 + round) % 4096)}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	pages, bytes := uint64(0), uint64(0)
	for _, tr := range s.SlowTraces() {
		if tr.Op != "get" {
			t.Fatalf("unexpected trace op %q", tr.Op)
		}
		pages += tr.Pages
		bytes += tr.ReadBytes + tr.WriteBytes
	}
	if pages == 0 {
		t.Fatal("hook-wired traces charged no pages")
	}
	if bytes == 0 {
		t.Fatal("traces carried no meter-derived bytes")
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestTraceDeadShardDrain: a shard that panics with tracing enabled still
// completes every queued message, answers snapshots with its error report
// and no partial phase records, and leaves the flight recorder serving the
// surviving shards' traces.
func TestTraceDeadShardDrain(t *testing.T) {
	s := mustNew(t, Config{
		Shards: 4,
		Build: func(i int) *core.Instrumented {
			if i == 1 {
				panic("shard 1 refuses to build")
			}
			return buildSkiplist(i)
		},
		Trace: &TraceConfig{SlowK: 16},
	})
	// Every batch completes even though shard 1 is dead.
	tracedWorkload(t, s, 2000)

	snaps, err := s.Snapshot()
	if err == nil {
		t.Fatal("Snapshot reported no error for a dead shard")
	}
	for _, r := range snaps {
		if r.Shard == 1 {
			if r.Err == nil {
				t.Fatal("dead shard snapshot carries no error")
			}
			if r.Phases != nil {
				t.Fatal("dead shard published partial phase records")
			}
		} else if r.Err != nil {
			t.Fatalf("live shard %d reports error: %v", r.Shard, r.Err)
		} else if r.Phases == nil {
			t.Fatalf("live shard %d lost its phases", r.Shard)
		}
	}
	// The flight recorder is not wedged: it holds traces, none from shard 1.
	traces := s.SlowTraces()
	if len(traces) == 0 {
		t.Fatal("flight recorder empty after load on live shards")
	}
	for _, tr := range traces {
		if tr.Shard == 1 {
			t.Fatalf("dead shard produced a trace: %+v", tr)
		}
	}
	if _, err := s.Stop(); err == nil {
		t.Fatal("Stop reported no error for a panicked shard")
	}
}

// TestObservedDoAllocatesLikeQuietDo pins the taps' steady state: once the
// flight recorder is full and the exemplar slots hold their champions, a Do
// call with Trace and Workload on allocates no more than the same call on a
// quiet server — the trace is assembled on the stack and only for an admitted
// op, and recording an op touches preallocated sketch state only. A window
// rotation allocates the fingerprint it publishes (pinned per rotation by
// obs.TestRotationAllocatesOnlyTheFingerprint), so the window here is longer
// than the run. Each call is measured on its own and the median is pinned:
// under the race detector sync.Pool drops a quarter of what is Put, and the
// Do that follows a drop pays for fresh scratch, as does one whose slow op
// the flight recorder admits (one heap copy); an allocation on the traced
// path is paid by every call.
func TestObservedDoAllocatesLikeQuietDo(t *testing.T) {
	const batch, calls = 128, 201
	reqs := make([]Request, batch)
	res := make([]Result, batch)
	rng := rand.New(rand.NewPCG(5, 7))
	doAllocs := func(cfg Config) float64 {
		cfg.Shards, cfg.Build = 2, buildSkiplist
		s := mustNew(t, cfg)
		defer s.Stop()
		// Far more keys than the top-k table holds. The warm-up inserts; the
		// measured calls only read and update, which allocate nothing in the
		// structure, so every allocation counted is the serving layer's.
		kinds := []Op{OpInsert, OpGet, OpUpdate}
		do := func() {
			for i := range reqs {
				reqs[i] = Request{Op: kinds[rng.IntN(len(kinds))], Key: core.Key(rng.Uint64N(1 << 14)), Value: 1}
			}
			if err := s.Do(reqs, res); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ {
			do()
		}
		kinds = kinds[1:]
		per := make([]float64, calls)
		for i := range per {
			per[i] = testing.AllocsPerRun(1, do) // one warm-up call, one measured
		}
		slices.Sort(per)
		return per[calls/2]
	}
	quiet := doAllocs(Config{})
	observed := doAllocs(Config{
		Trace:    &TraceConfig{SlowK: 4},
		Workload: &WorkloadConfig{WindowOps: 1 << 30},
	})
	if observed > quiet {
		t.Fatalf("observed Do allocates %.0f per batch, quiet Do %.0f", observed, quiet)
	}
}

// benchDo measures the Do round-trip for one configuration.
func benchDo(b *testing.B, trace *TraceConfig) {
	s, err := New(Config{Shards: 4, Build: buildSkiplist, Trace: trace})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	const batch = 256
	reqs := make([]Request, batch)
	res := make([]Result, batch)
	for i := range reqs {
		reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j].Op = OpGet
		}
		if err := s.Do(reqs, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDo is the quiet-path baseline; BenchmarkDoTraced is the same
// workload with tracing on. Comparing allocs/op pins the zero-allocation
// claim for the disabled path and bounds the traced path's overhead.
func BenchmarkDo(b *testing.B)       { benchDo(b, nil) }
func BenchmarkDoTraced(b *testing.B) { benchDo(b, &TraceConfig{SlowK: 32}) }

// BenchmarkDoClosedLoop is the shape rumperf runs: two closed-loop clients
// over two shards of a resident B-tree, 64 point reads per Do, so each shard
// sees a sub-batch of about 32, then an empty mailbox until the clients are
// back. ns/op is wall time per Do across both clients.
func BenchmarkDoClosedLoop(b *testing.B) {
	const clients, shards, batch, n = 2, 2, 64, 1 << 16
	s, err := New(Config{Shards: shards, Build: func(int) *core.Instrumented {
		return methods.NewBTree(methods.Options{PoolPages: 1 << 12}, btree.Config{})
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := s.Preload(recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(x uint32) {
			defer wg.Done()
			reqs := make([]Request, batch)
			res := make([]Result, batch)
			for issued.Add(1) <= int64(b.N) {
				for i := range reqs {
					x = x*1664525 + 1013904223
					reqs[i] = Request{Op: OpGet, Key: core.Key(x >> 8 % n)}
				}
				if err := s.Do(reqs, res); err != nil {
					b.Error(err)
					return
				}
			}
		}(uint32(c + 1))
	}
	wg.Wait()
}
