package serve

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestQuietAndTracedShardsAgree is the quiet ≡ traced relation: both run the
// one op loop, and a traced shard only reads the clock and observes around
// each run, so the same stream must leave both with the same results, shard
// ledgers (meter, size, record count), PoolStats and device stats. Streams
// are generated per seed over four mixes. The shards' btrees sit on a pool
// that holds them whole, on a 12-frame pool that evicts, and on a 12-frame
// mqssd pool whose write-backs batch; the traced server runs both with the
// phase recorder wired into the storage stack as its hook and without.
func TestQuietAndTracedShardsAgree(t *testing.T) {
	type mix struct {
		name                string
		get, insert, update int // percentages; the rest deletes
	}
	type outcome struct {
		res     []Result
		reports []ShardReport
		pools   []storage.PoolStats
		devs    []storage.DeviceStats
	}
	seeds, batches := uint64(3), 150
	if testing.Short() {
		seeds, batches = 1, 50 // the racecheck build's pool checks are slow
	}
	// run drives one stream through a quiet server (trace nil) or a traced
	// one; hook threads each traced shard's recorder into its pool.
	run := func(t *testing.T, m mix, opt methods.Options, seed uint64, trace *TraceConfig, hook bool) outcome {
		var o outcome
		pools := make([]*storage.BufferPool, 2)
		recs := make([]*obs.PhaseRecorder, 2)
		if hook {
			trace.Recorder = func(i int) *obs.PhaseRecorder {
				recs[i] = obs.NewPhaseRecorder()
				return recs[i]
			}
		}
		s := mustNew(t, Config{Shards: 2, Trace: trace, Build: func(i int) *core.Instrumented {
			opt := opt
			if recs[i] != nil {
				opt.Hook = recs[i]
			}
			pools[i] = methods.NewPool(opt, nil)
			tr, err := btree.New(pools[i], btree.Config{})
			if err != nil {
				panic(err)
			}
			return core.Instrument(tr)
		}})
		rng := rand.New(rand.NewPCG(seed, uint64(m.get)))
		preload := make([]core.Record, 3000)
		for i := range preload {
			preload[i] = core.Record{Key: core.Key(2 * i), Value: core.Value(i)}
		}
		if err := s.Preload(preload); err != nil {
			t.Fatal(err)
		}
		reqs, res := make([]Request, 64), make([]Result, 64)
		for batch := 0; batch < batches; batch++ {
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
			o.res = append(o.res, res...)
		}
		reports, err := s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		o.reports = ledgers(reports)
		for i, p := range pools {
			dev := p.Device().Stats()
			if hook && reports[i].Phases.Pages.Touched() != dev.PageReads+dev.PageWrites {
				t.Fatalf("shard %d: hooked ledger touched %d pages, the device %+v", i, reports[i].Phases.Pages.Touched(), dev)
			}
			o.reports[i].Phases = nil
			o.pools, o.devs = append(o.pools, p.Stats()), append(o.devs, dev)
		}
		return o
	}
	mixes := []mix{{"read90", 90, 5, 3}, {"read50", 50, 25, 15}, {"get-only", 100, 0, 0}, {"delete-heavy", 30, 30, 0}}
	media := []struct {
		name  string
		opt   methods.Options
		evict bool
	}{
		{"resident", methods.Options{PageSize: 512, PoolPages: 1 << 12}, false},
		{"evicting", methods.Options{PageSize: 512, PoolPages: 12}, true},
		{"mqssd", methods.Options{PageSize: 512, PoolPages: 12, Medium: storage.MQSSD}, true},
	}
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			for _, md := range media {
				t.Run(md.name, func(t *testing.T) {
					for seed := uint64(1); seed <= seeds; seed++ {
						quiet := run(t, m, md.opt, seed, nil, false)
						for _, evicted := range quiet.pools {
							if (evicted.Evictions > 0) != md.evict {
								t.Fatalf("seed %d: %d evictions on the %s pool", seed, evicted.Evictions, md.name)
							}
						}
						for _, hook := range []bool{false, true} {
							traced := run(t, m, md.opt, seed, &TraceConfig{}, hook)
							if !slices.Equal(quiet.res, traced.res) {
								for i := range quiet.res {
									if quiet.res[i] != traced.res[i] {
										t.Fatalf("seed %d hook %v: request %d: quiet %+v, traced %+v", seed, hook, i, quiet.res[i], traced.res[i])
									}
								}
							}
							if !reflect.DeepEqual(quiet.reports, traced.reports) {
								t.Fatalf("seed %d hook %v: shard ledgers differ:\nquiet  %+v\ntraced %+v", seed, hook, quiet.reports, traced.reports)
							}
							if !slices.Equal(quiet.pools, traced.pools) {
								t.Fatalf("seed %d hook %v: pool stats differ:\nquiet  %+v\ntraced %+v", seed, hook, quiet.pools, traced.pools)
							}
							if !slices.Equal(quiet.devs, traced.devs) {
								t.Fatalf("seed %d hook %v: device stats differ:\nquiet  %+v\ntraced %+v", seed, hook, quiet.devs, traced.devs)
							}
						}
					}
				})
			}
		})
	}
}

// tracedWorkload drives a mixed batch workload through s and returns the
// number of operations submitted. A read-heavy stream turns nine in ten of
// its ops into gets, so that runs of gets form in each message.
func tracedWorkload(t *testing.T, s *Server, ops int, readHeavy bool) int {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 23))
	const batch = 64
	reqs := make([]Request, batch)
	res := make([]Result, batch)
	submitted := 0
	for submitted < ops {
		for i := range reqs {
			k := core.Key(rng.Uint64N(2048))
			kind := rng.UintN(4)
			if readHeavy && rng.UintN(10) != 0 {
				kind = 0
			}
			switch kind {
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
// every executed operation. The read-heavy stream keeps every trace, and
// its messages carry runs of three gets and more, whose ops split their
// run's span between them.
func TestTraceDecomposition(t *testing.T) {
	for _, tc := range []struct {
		name      string
		readHeavy bool
		slowK     int
	}{{"mixed", false, 32}, {"read-heavy", true, 4096}} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, Config{
				Shards: 4,
				Build:  buildSkiplist,
				Trace:  &TraceConfig{SlowK: tc.slowK},
			})
			ops := tracedWorkload(t, s, 4000, tc.readHeavy)

			traces := s.SlowTraces()
			if len(traces) != min(tc.slowK, ops) {
				t.Fatalf("flight recorder holds %d traces, want %d", len(traces), min(tc.slowK, ops))
			}
			longest := 0
			for _, tr := range traces {
				if tr.Total != tr.Queue+tr.Service {
					t.Fatalf("decomposition broken: total %v != queue %v + service %v",
						tr.Total, tr.Queue, tr.Service)
				}
				if tr.Queue < 0 || tr.Service < 0 {
					t.Fatalf("negative phase: %+v", tr)
				}
				if tr.Op == "" || tr.Batch <= 0 || tr.Shard < 0 || tr.Shard >= 4 || tr.Run < 1 || tr.Run > tr.Batch {
					t.Fatalf("malformed trace: %+v", tr)
				}
				if tr.Run > 1 && tr.Op != "get" {
					t.Fatalf("a %s shared a run: %+v", tr.Op, tr)
				}
				longest = max(longest, tr.Run)
			}
			if tc.readHeavy && longest < 3 {
				t.Fatalf("longest run %d: the read-heavy stream formed no run of three gets", longest)
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
			// Every mailbox message recorded its batch size, and the sizes sum
			// back to the op count.
			if got := uint64(agg.Batch.Sum()); got != uint64(ops) {
				t.Fatalf("batch histogram sums %d ops, want %d", got, ops)
			}
			if len(agg.Exemplars) == 0 {
				t.Fatal("no exemplars retained")
			}
		})
	}
}

// TestSpanAtSplitsExactly: the parts spanAt cuts a run's span into are
// non-negative, differ by at most 1 ns, and sum to the span with ==, for
// every run length the loop can form up to 64 and spans of zero, shorter
// than the run, and as long as a Duration holds.
func TestSpanAtSplitsExactly(t *testing.T) {
	spans := []time.Duration{0, 1, 2, 7, 63, 64, 65, 1000, 123456789, time.Hour, 1 << 62, math.MaxInt64}
	for _, span := range spans {
		for n := 1; n <= 64; n++ {
			if got := spanAt(span, 0, n); got != 0 {
				t.Fatalf("span %d n %d: first boundary %d", span, n, got)
			}
			var sum time.Duration
			lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
			for j := 0; j < n; j++ {
				part := spanAt(span, j+1, n) - spanAt(span, j, n)
				if part < 0 {
					t.Fatalf("span %d n %d: part %d is %d", span, n, j, part)
				}
				sum += part
				lo, hi = min(lo, part), max(hi, part)
			}
			if sum != span || hi-lo > 1 {
				t.Fatalf("span %d n %d: parts sum to %d, range %d..%d", span, n, sum, lo, hi)
			}
		}
	}
}

// TestTraceDisabledReportsNothing pins the disabled contract: no Phases on
// any report (the determinism tests DeepEqual ShardReports), no slow traces,
// and MailboxDepths still works as a plain gauge.
func TestTraceDisabledReportsNothing(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: buildSkiplist})
	tracedWorkload(t, s, 500, false)
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
// its storage stack as a hook and traces then carry page counts. It keeps
// every op's trace and checks their run attribution: on each shard, in
// completion order, the traces fall into runs of Run ops that carry the same
// Pages and ReadBytes — the device work of the one GetBatch they shared —
// and the runs' pages sum to what the shard's ledger counted meanwhile.
func TestTraceRecorderWiring(t *testing.T) {
	recs := make([]*obs.PhaseRecorder, 2)
	s := mustNew(t, Config{
		Shards:   2,
		MaxBatch: 8,
		Trace: &TraceConfig{
			SlowK: 1 << 12,
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
	// every get misses and its run is charged pages through the hook. Every
	// sixteenth op updates, so messages are cut at MaxBatch and the runs of
	// gets between updates have many lengths.
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
	before, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	reqs := make([]Request, 256)
	res := make([]Result, 256)
	for round := 0; round < 4; round++ {
		for i := range reqs {
			op := OpGet
			if i%16 == 15 {
				op = OpUpdate
			}
			reqs[i] = Request{Op: op, Key: core.Key((i*1031 + round) % 4096), Value: 1}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	traces := s.SlowTraces()
	if len(traces) != 4*len(reqs) {
		t.Fatalf("flight recorder holds %d traces, want all %d", len(traces), 4*len(reqs))
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	shared := false
	for sh := range reports {
		var mine []obs.SlowTrace
		for _, tr := range traces {
			if tr.Shard == sh {
				mine = append(mine, tr)
			}
		}
		slices.SortStableFunc(mine, func(a, b obs.SlowTrace) int { return a.At.Compare(b.At) })
		var pages, bytes uint64
		for len(mine) > 0 {
			n := mine[0].Run
			if n < 1 || n > len(mine) {
				t.Fatalf("shard %d: a run of %d with %d traces left", sh, n, len(mine))
			}
			for _, tr := range mine[:n] {
				if tr.Run != n || tr.Pages != mine[0].Pages || tr.ReadBytes != mine[0].ReadBytes {
					t.Fatalf("shard %d: one run's traces disagree:\n%+v\n%+v", sh, mine[0], tr)
				}
				if n > 1 && tr.Op != "get" {
					t.Fatalf("shard %d: a %s in a run of %d", sh, tr.Op, n)
				}
			}
			shared = shared || n > 1
			pages += mine[0].Pages
			bytes += mine[0].ReadBytes + mine[0].WriteBytes
			mine = mine[n:]
		}
		if pages == 0 {
			t.Fatalf("shard %d: hook-wired traces charged no pages", sh)
		}
		if bytes == 0 {
			t.Fatalf("shard %d: traces carried no meter-derived bytes", sh)
		}
		if ledger := reports[sh].Phases.Pages.Touched() - before[sh].Phases.Pages.Touched(); ledger != pages {
			t.Fatalf("shard %d: the ledger touched %d pages, the runs' traces %d", sh, ledger, pages)
		}
	}
	if !shared {
		t.Fatal("no trace shared a run")
	}
}

// TestTracedPrefetchInFirstRun: a shard over a write-ahead-logged LSM on the
// multi-queue SSD hints each message's keys with one Prefetch, inside the
// message's first run. The batch lookup's reads are then charged to that
// run, so the read bytes of the runs' traces — one trace per op, all ops
// traced — still add up to the shard meter's. A prefetch outside the runs
// would leave its reads in the meter and in no trace.
func TestTracedPrefetchInFirstRun(t *testing.T) {
	var pool *storage.BufferPool
	s := mustNew(t, Config{
		Shards:   1,
		MaxBatch: 32,
		Trace:    &TraceConfig{SlowK: 1 << 12},
		Build: func(int) *core.Instrumented {
			pool = methods.NewPool(methods.Options{Medium: storage.MQSSD, PoolPages: 16}, nil)
			l, err := wal.NewLSM(pool, lsm.Config{MemtableRecords: 256}, wal.Config{CommitBatch: 32, CheckpointEvery: 512})
			if err != nil {
				panic(err)
			}
			return core.Instrument(l)
		},
	})
	const n = 8192
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(2 * i), Value: core.Value(i)}
	}
	if err := s.Preload(recs); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	hits := pool.Stats().PrefetchHits
	// Gets of stored keys, inserts of fresh odd ones and an update now and
	// then: each 32-op message is several runs, and most keys miss the pool.
	reqs, res := make([]Request, 256), make([]Result, 256)
	for round := 0; round < 8; round++ {
		for i := range reqs {
			k := core.Key(2 * ((i*1031 + round*7919) % n))
			switch {
			case i%8 == 3:
				reqs[i] = Request{Op: OpInsert, Key: k + 1, Value: 1}
			case i%16 == 7:
				reqs[i] = Request{Op: OpUpdate, Key: k, Value: 2}
			default:
				reqs[i] = Request{Op: OpGet, Key: k}
			}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do: %v", err)
		}
		for i, r := range res {
			if !r.OK {
				t.Fatalf("round %d: %v of key %d failed", round, reqs[i].Op, reqs[i].Key)
			}
		}
	}
	traces := s.SlowTraces()
	if len(traces) != 8*len(reqs) {
		t.Fatalf("flight recorder holds %d traces, want all %d", len(traces), 8*len(reqs))
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if pool.Stats().PrefetchHits == hits {
		t.Fatal("no prefetched page was ever fetched: the shard did not prefetch")
	}
	slices.SortStableFunc(traces, func(a, b obs.SlowTrace) int { return a.At.Compare(b.At) })
	var read uint64
	for len(traces) > 0 {
		n := traces[0].Run
		if n < 1 || n > len(traces) {
			t.Fatalf("a run of %d with %d traces left", n, len(traces))
		}
		read += traces[0].ReadBytes
		traces = traces[n:]
	}
	m0, m1 := before[0].Meter, reports[0].Meter
	if want := m1.BaseRead + m1.AuxRead - m0.BaseRead - m0.AuxRead; read != want {
		t.Fatalf("the runs' traces read %d bytes, the shard meter %d", read, want)
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
	tracedWorkload(t, s, 2000, false)

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
// BenchmarkDoClosedLoopTraced is the same loop with Trace on: unlike
// BenchmarkDoTraced's skiplist, the B-tree serves each run of gets in one
// GetBatch, so it shows what the traced loop keeps of the grouping.
func BenchmarkDoClosedLoop(b *testing.B)       { benchClosedLoop(b, nil) }
func BenchmarkDoClosedLoopTraced(b *testing.B) { benchClosedLoop(b, &TraceConfig{SlowK: 32}) }

func benchClosedLoop(b *testing.B, trace *TraceConfig) {
	const clients, shards, batch, n = 2, 2, 64, 1 << 16
	s, err := New(Config{Shards: shards, Trace: trace, Build: func(int) *core.Instrumented {
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
