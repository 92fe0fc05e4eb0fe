package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/wal"
)

// stream is one client's request generator. Every request comes with its
// exact expected result, because a client only ever touches keys of its own
// namespaces and the server keeps a client's requests in order.
type stream struct {
	main *bench.StreamGen
	// writer is set for snapshot-read only: a write-only generator on a
	// second namespace, so the namespace the reads target never changes and
	// a read off a stale snapshot still has an exact answer.
	writer  *bench.StreamGen
	batches int
}

// fill generates the stream's next len(reqs) requests, a whole number of
// batches, and their expected results.
func (s *stream) fill(reqs []serve.Request, want []serve.Result) {
	for lo := 0; lo < len(reqs); lo += batchSize {
		g := s.main
		if s.writer != nil && s.batches%snapGroup == snapGroup-1 {
			g = s.writer
		}
		s.batches++
		for i := lo; i < lo+batchSize; i++ {
			reqs[i], want[i] = g.Next()
		}
	}
}

// mutator is the generator whose namespace takes writes.
func (s *stream) mutator() *bench.StreamGen {
	if s.writer != nil {
		return s.writer
	}
	return s.main
}

func (s *stream) live() int {
	n := s.main.Live()
	if s.writer != nil {
		n += s.writer.Live()
	}
	return n
}

// harness runs one workload at one size from one seed. Its buffers are
// allocated once, so nothing the harness does inside a timed segment
// allocates.
type harness struct {
	w    workload
	sz   sizing
	seed int64
	mix  bench.ServeMix
	dist bench.KeyDist

	reqs      [][]serve.Request // per client, one round's requests
	want, res [][]serve.Result
	lat       [][]int64 // per client, one sample per Do call of the round
	ends      []time.Time
	doErrs    []int
	pooled    []int64 // a round's samples of all clients, sorted
	ref       [4096]uint64
	spans     *spanLog // non-nil while a traced pass or the ladder runs
}

func newHarness(w workload, sz sizing, seed int64) (*harness, error) {
	if sz.chunk%(batchSize*snapGroup) != 0 {
		return nil, fmt.Errorf("chunk %d is not a multiple of %d", sz.chunk, batchSize*snapGroup)
	}
	h := &harness{w: w.scaled(sz), sz: sz, seed: seed}
	var err error
	if h.mix, err = bench.ParseServeMix(w.mix); err != nil {
		return nil, err
	}
	if h.dist, err = bench.ParseKeyDist(w.dist); err != nil {
		return nil, err
	}
	calls := sz.chunk / batchSize
	for c := 0; c < sz.clients; c++ {
		h.reqs = append(h.reqs, make([]serve.Request, sz.chunk))
		h.want = append(h.want, make([]serve.Result, sz.chunk))
		h.res = append(h.res, make([]serve.Result, sz.chunk))
		h.lat = append(h.lat, make([]int64, calls))
	}
	h.ends = make([]time.Time, sz.clients)
	h.doErrs = make([]int, sz.clients)
	h.pooled = make([]int64, 0, calls*sz.clients)
	return h, nil
}

func (h *harness) newStream(client int) *stream {
	s := &stream{main: bench.NewStreamGenDist(h.seed, client, h.mix, h.dist)}
	if h.w.snapshots {
		s.writer = bench.NewStreamGenDist(h.seed, h.sz.clients+client, snapWriteMix, bench.UniformDist())
	}
	return s
}

// system is one built server with the handles and generators around it.
type system struct {
	srv     *serve.Server
	setupS  float64
	stacks  []*stack
	streams []*stream
	// shadow holds, for one key in shadowOneIn, the last acknowledged state;
	// the recovery check of ingest-wal reads each back. Nil otherwise.
	shadow map[core.Key]shadowVal
}

type shadowVal struct {
	v    core.Value
	live bool
}

func shadowed(k core.Key) bool {
	return (k*0x9e3779b97f4a7c15)>>58 == 0
}

func (h *harness) serveConfig(traced bool, build func(int) *core.Instrumented) serve.Config {
	cfg := serve.Config{Shards: h.sz.shards, MaxBatch: batchSize, Build: build}
	if h.w.observed || traced {
		cfg.Trace = &serve.TraceConfig{}
	}
	if h.w.observed {
		cfg.Workload = &serve.WorkloadConfig{WindowOps: 4096}
	}
	if h.w.snapshots {
		cfg.Snapshots = true
		cfg.StalenessOps = 64
	}
	return cfg
}

// quietRef reads the reference kernel with no collection in flight, so that
// a slow reading is the host's doing and not this process's. It is the
// fastest of three tries: the first one after a collection often runs into
// the collector's last background work.
func (h *harness) quietRef() float64 {
	runtime.GC()
	best := refKernel(&h.ref)
	for i := 0; i < 2; i++ {
		best = min(best, refKernel(&h.ref))
	}
	return best
}

// setup builds the server, preloads it, empties the pools so the run starts
// cold, and generates the first round. sys.setupS is the seconds that took:
// one sample of the setup_s metric.
func (h *harness) setup(traced bool) (*system, error) {
	t0 := time.Now()
	sys := &system{stacks: make([]*stack, h.sz.shards)}
	var recs []core.Record
	for c := 0; c < h.sz.clients; c++ {
		s := h.newStream(c)
		sys.streams = append(sys.streams, s)
		recs = append(recs, s.main.InitRecords(h.w.n/h.sz.clients)...)
	}
	bench.MergeRecords(recs)
	if h.w.lsmWAL {
		sys.shadow = make(map[core.Key]shadowVal)
		for _, r := range recs {
			if shadowed(r.Key) {
				sys.shadow[r.Key] = shadowVal{r.Value, true}
			}
		}
	}
	srv, err := serve.New(h.serveConfig(traced, func(i int) *core.Instrumented {
		st, am, err := h.w.build()
		if err != nil {
			panic(err) // kills the shard; Snapshot and Stop report it
		}
		sys.stacks[i] = st
		return core.Instrument(am)
	}))
	if err != nil {
		return nil, err
	}
	sys.srv = srv
	if err := srv.Preload(recs); err != nil {
		return nil, err
	}
	if err := srv.Flush(); err != nil {
		return nil, err
	}
	if _, err := srv.Snapshot(); err != nil {
		return nil, err
	}
	// The shards are idle and every call above has returned, so the pools
	// may be touched from here. A cold pool makes the warm-up rounds fault
	// the working set in, which is the device read traffic of a resident
	// workload.
	for _, st := range sys.stacks {
		st.pool.DropAll()
	}
	h.generate(sys)
	sys.setupS = time.Since(t0).Seconds()
	return sys, nil
}

func (h *harness) generate(sys *system) {
	for c, s := range sys.streams {
		s.fill(h.reqs[c], h.want[c])
	}
}

// roundStat is what one timed round contributes.
type roundStat struct {
	opsPerS      float64
	p50us, p99us float64
	mallocs      uint64
	refMax       float64 // the slower of the reference readings around the round
}

// timedRound runs one round: every client submits its chunk as Do calls of
// batchSize and records one raw sample per call. Only the segment between
// the release of the clients and the end of the last one is on the clock.
func (h *harness) timedRound(sys *system) (roundStat, time.Time) {
	var before, after runtime.MemStats
	gate := make(chan struct{})
	var wg sync.WaitGroup
	runtime.ReadMemStats(&before)
	for c := range h.reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs, res, lat := h.reqs[c], h.res[c], h.lat[c]
			<-gate
			prev := time.Now()
			for b := range lat {
				lo := b * batchSize
				if err := sys.srv.Do(reqs[lo:lo+batchSize], res[lo:lo+batchSize]); err != nil {
					h.doErrs[c]++
				}
				now := time.Now()
				lat[b] = int64(now.Sub(prev))
				prev = now
			}
			h.ends[c] = prev
		}(c)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	runtime.ReadMemStats(&after)

	end := h.ends[0]
	h.pooled = h.pooled[:0]
	for c := range h.lat {
		if h.ends[c].After(end) {
			end = h.ends[c]
		}
		h.pooled = append(h.pooled, h.lat[c]...)
	}
	slices.Sort(h.pooled)
	return roundStat{
		opsPerS: float64(h.sz.clients*h.sz.chunk) / end.Sub(start).Seconds(),
		p50us:   float64(rankNs(h.pooled, 0.50)) / 1e3,
		p99us:   float64(rankNs(h.pooled, 0.99)) / 1e3,
		mallocs: after.Mallocs - before.Mallocs,
	}, start
}

// verify compares every result of the round with its prediction and returns
// how many were wrong; a Do call that returned an error counts as a batch of
// wrong results. It also keeps the shadow model up to date.
func (h *harness) verify(sys *system) (failed int64) {
	for c := range h.reqs {
		failed += int64(h.doErrs[c] * batchSize)
		h.doErrs[c] = 0
		for i, got := range h.res[c] {
			if got != h.want[c][i] {
				failed++
			}
		}
		if sys.shadow == nil {
			continue
		}
		for _, r := range h.reqs[c] {
			if r.Op == serve.OpGet || !shadowed(r.Key) {
				continue
			}
			sys.shadow[r.Key] = shadowVal{r.Value, r.Op != serve.OpDelete}
		}
	}
	return failed
}

// ledger is the sum over shards of every public counter the fixed pass
// reads, taken while the shards are idle.
type ledger struct {
	meter     rum.Meter
	size      rum.SizeInfo
	dev       storage.DeviceStats
	pool      storage.PoolStats
	wal       wal.Stats
	committed uint64
	bt        btree.Stats
	height    int
}

func (sys *system) ledger() (ledger, error) {
	reports, err := sys.srv.Snapshot()
	if err != nil {
		return ledger{}, err
	}
	var l ledger
	l.meter, l.size, _ = serve.Aggregate(reports)
	for _, st := range sys.stacks {
		d, p := st.dev.Stats(), st.pool.Stats()
		l.dev.PageReads += d.PageReads
		l.dev.PageWrites += d.PageWrites
		l.dev.CostUnits += d.CostUnits
		l.dev.Batches += d.Batches
		l.dev.BatchedPages += d.BatchedPages
		l.pool.Hits += p.Hits
		l.pool.Misses += p.Misses
		l.pool.Evictions += p.Evictions
		l.pool.WriteBacks += p.WriteBacks
		l.pool.FetchFailures += p.FetchFailures
		if st.lg != nil {
			s := st.lg.Stats()
			l.wal.Syncs += s.Syncs
			l.wal.Checkpoints += s.Checkpoints
			l.wal.LogBytesWritten += s.LogBytesWritten
			l.wal.PagesRecycled += s.PagesRecycled
			l.wal.LiveLogPages += s.LiveLogPages
			l.committed += st.lg.Committed()
		}
		if st.bt != nil {
			s := st.bt.Stats()
			l.bt.LeafSplits += s.LeafSplits
			l.bt.CowCopies += s.CowCopies
			l.height = max(l.height, st.bt.Height())
		}
	}
	return l, nil
}

// capture writes the read and write amplification, the device cost and the
// count metrics of every layer into vals, all over the window from the cold
// start to the checkpoint that just closed it.
func (h *harness) capture(sys *system, base ledger, requests float64, vals map[string]float64) error {
	now, err := sys.ledger()
	if err != nil {
		return err
	}
	m := now.meter.Diff(base.meter)
	vals["read_amp"] = finite(m.ReadAmplification())
	vals["write_amp"] = finite(m.WriteAmplification())
	vals["cost_per_op"] = float64(now.dev.CostUnits-base.dev.CostUnits) / requests
	vals["core.logical_bytes_per_op"] = float64(m.LogicalRead+m.LogicalWritten) / requests

	kops := requests / 1000
	reads := float64(now.dev.PageReads - base.dev.PageReads)
	writes := float64(now.dev.PageWrites - base.dev.PageWrites)
	batched := float64(now.dev.BatchedPages - base.dev.BatchedPages)
	hits := float64(now.pool.Hits - base.pool.Hits)
	misses := float64(now.pool.Misses - base.pool.Misses)
	vals["storage.pool_hit_rate"] = ratio(hits, hits+misses)
	vals["storage.pool_evictions_per_kop"] = float64(now.pool.Evictions-base.pool.Evictions) / kops
	vals["storage.pool_writebacks_per_kop"] = float64(now.pool.WriteBacks-base.pool.WriteBacks) / kops
	vals["storage.pool_fetch_failures"] = float64(now.pool.FetchFailures - base.pool.FetchFailures)
	vals["storage.dev_reads_per_op"] = reads / requests
	vals["storage.dev_writes_per_op"] = writes / requests
	vals["storage.dev_batched_share"] = ratio(batched, reads+writes)
	vals["storage.dev_batch_fill"] = ratio(batched,
		float64(now.dev.Batches-base.dev.Batches)*float64(h.w.medium.Model().Channels))

	vals["wal.records_per_sync"] = ratio(float64(now.committed-base.committed), float64(now.wal.Syncs-base.wal.Syncs))
	vals["wal.log_bytes_per_user_byte"] = ratio(float64(now.wal.LogBytesWritten-base.wal.LogBytesWritten), float64(m.LogicalWritten))
	vals["wal.checkpoints"] = float64(now.wal.Checkpoints - base.wal.Checkpoints)
	vals["wal.pages_recycled"] = float64(now.wal.PagesRecycled - base.wal.PagesRecycled)
	vals["wal.live_log_pages"] = float64(now.wal.LiveLogPages)

	vals["btree.height"] = float64(now.height)
	vals["btree.leaf_splits_per_kop"] = float64(now.bt.LeafSplits-base.bt.LeafSplits) / kops
	vals["btree.cow_copies_per_kop"] = float64(now.bt.CowCopies-base.bt.CowCopies) / kops
	return nil
}

// passResult is what one pass over a freshly built server measured. Only
// numbers leave a pass, so the server can be collected behind it.
type passResult struct {
	setup             timedSample
	rounds            []roundStat // timed rounds, warm-up excluded
	attempted, failed int64
	// vals holds, after a fixed pass, the RUM, memory and count metrics.
	vals map[string]float64
}

// spaceAmp reads the space amplification of the idle server.
func (sys *system) spaceAmp() (float64, error) {
	l, err := sys.ledger()
	return finite(l.size.SpaceAmplification()), err
}

// liveHeap is the bytes of reachable heap objects, in MiB.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runPass builds a server and drives rounds against it. With seconds > 0 it
// is a timing pass of about that much wall time. With seconds == 0 it is the
// fixed pass: exactly rumRounds rounds, so that every metric that depends on
// how much work was done covers the same work in every run, with a checkpoint
// after each timed round, ended by the RUM capture, the heap reading and,
// under the log, one more round and the crash-recovery check.
func (h *harness) runPass(seconds float64, traced bool) (*passResult, error) {
	pr, held, err := h.pass(seconds, traced)
	if err != nil {
		return nil, err
	}
	if seconds == 0 {
		// The server is unreachable now; what is still live is the
		// harness's own state, which was live at the first reading too.
		pr.vals["heap_mb"] -= liveHeap()
	}
	runtime.KeepAlive(held)
	return pr, nil
}

// timingRounds is how many rounds a timing pass of the given length runs. The
// count is fixed by the workload's measured pace on the reference host, 2
// cores of this sandbox, and not by a clock inside the loop: the same
// seconds then mean the same requests in every run, and the medians of two
// runs are taken over the same rounds. That matters most where rounds differ
// from each other, as under an lsm tree that grows and compacts.
func (h *harness) timingRounds(seconds float64) int {
	return warmupRounds + max(3, int(seconds*h.w.roundsPerSecond+0.5))
}

func (h *harness) pass(seconds float64, traced bool) (*passResult, any, error) {
	setupRef := h.quietRef()
	sys, err := h.setup(traced)
	if err != nil {
		return nil, nil, err
	}
	pr := &passResult{vals: map[string]float64{}}
	fixed := seconds == 0
	rounds := h.timingRounds(seconds)
	if fixed {
		rounds = h.w.rumRounds
		if h.w.lsmWAL {
			rounds++ // leaves a log tail behind the checkpoint for recovery to replay
		}
	}
	base, err := sys.ledger()
	if err != nil {
		return nil, nil, err
	}
	var allLat []int64
	var windowMallocs uint64
	var spaceAmp float64 // summed over the checkpoints of the window
	refs := make([]float64, 0, rounds+1)
	perRound := h.sz.clients * h.sz.chunk
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		if r > 0 {
			h.generate(sys)
		}
		refs = append(refs, h.quietRef())
		rs, start := h.timedRound(sys)
		pr.failed += h.verify(sys)
		pr.attempted += int64(perRound)
		if traced {
			h.spans.addRound(h, r, start)
		}
		if r >= warmupRounds {
			pr.rounds = append(pr.rounds, rs)
		}
		if fixed && r >= warmupRounds && r < h.w.rumRounds {
			windowMallocs += rs.mallocs
			allLat = append(allLat, h.pooled...)
			// The checkpoint brings the store to a state that does not
			// depend on where in a flush or compaction cycle the round
			// ended. Under MVCC the pages retained for old versions still
			// come and go with every publish: the mean over the
			// checkpoints is what the store holds.
			if err := sys.srv.Flush(); err != nil {
				return nil, nil, err
			}
			sa, err := sys.spaceAmp()
			if err != nil {
				return nil, nil, err
			}
			spaceAmp += sa
		}
		if fixed && r+1 == h.w.rumRounds {
			timed := float64(h.w.rumRounds - warmupRounds)
			if err := h.capture(sys, base, float64(h.w.rumRounds*perRound), pr.vals); err != nil {
				return nil, nil, err
			}
			pr.vals["space_amp"] = spaceAmp / timed
			pr.vals["allocs_per_op"] = float64(windowMallocs) / (timed * float64(perRound))
		}
		// A host far slower than the reference one stops early rather than
		// run into the driver's limit.
		if !fixed && len(pr.rounds) >= 3 && time.Since(begin).Seconds() > 3*seconds {
			break
		}
	}
	// Round r ran between readings r and r+1, the set-up between the one
	// before it and reading 0.
	refs = append(refs, h.quietRef())
	pr.setup = timedSample{sys.setupS, max(setupRef, refs[0])}
	for i := range pr.rounds {
		r := warmupRounds + i
		pr.rounds[i].refMax = max(refs[r], refs[r+1])
	}
	if fixed {
		slices.Sort(allLat)
		pr.vals["serve.batch_p999_us"] = float64(rankNs(allLat, 0.999)) / 1e3
		pr.vals["serve.batch_max_us"] = float64(rankNs(allLat, 1)) / 1e3
		pr.vals["heap_mb"] = liveHeap()
	}

	_, bypassed := sys.srv.ReaderStats()
	reports, err := sys.srv.Stop()
	if err != nil {
		return nil, nil, err
	}
	h.stopCounts(reports, float64(bypassed)/float64(pr.attempted), pr.vals)
	live, want := 0, 0
	for _, rep := range reports {
		live += rep.Len
	}
	for _, s := range sys.streams {
		want += s.live()
	}
	pr.attempted++
	if live != want {
		pr.failed++
	}
	if fixed && h.w.lsmWAL {
		h.recoveryCheck(sys, want, pr)
	}
	return pr, []any{sys.streams, sys.shadow}, nil
}

// stopCounts writes the metrics read from the shard reports of Stop.
func (h *harness) stopCounts(reports []serve.ShardReport, bypassShare float64, vals map[string]float64) {
	minOps, maxOps := reports[0].Ops, reports[0].Ops
	versions := 0
	for _, rep := range reports {
		minOps, maxOps = min(minOps, rep.Ops), max(maxOps, rep.Ops)
		versions = max(versions, rep.SnapVersions)
	}
	vals["serve.bypass_share"] = bypassShare
	vals["serve.shard_balance"] = ratio(float64(minOps), float64(maxOps))
	vals["serve.snap_versions"] = float64(versions)
	if ws := serve.AggregateWorkload(reports); ws != nil {
		vals["obs.windows"] = float64(ws.Windows)
		vals["obs.drift_events"] = float64(ws.DriftCount)
	}
	if ph := serve.AggregatePhases(reports); ph != nil {
		// Power-of-two buckets: each is the upper bound of the bucket the
		// quantile fell in, at most twice the true value.
		vals["serve.queue_p50_us"] = ph.Queue.Quantile(0.50) / 1e3
		vals["serve.queue_p99_us"] = ph.Queue.Quantile(0.99) / 1e3
		vals["serve.service_p50_us"] = ph.Service.Quantile(0.50) / 1e3
		vals["serve.service_p99_us"] = ph.Service.Quantile(0.99) / 1e3
	}
}

// recoveryCheck is the durability check of ingest-wal. The process "dies"
// after Stop: every pool frame not yet written back is dropped, the devices
// are reopened, and each shard's store is recovered from the device image
// alone. Every record acknowledged before the crash must be there.
func (h *harness) recoveryCheck(sys *system, wantLen int, pr *passResult) {
	t0 := time.Now()
	recovered := make([]*wal.Logged, 0, len(sys.stacks))
	gotLen := 0
	for _, st := range sys.stacks {
		st.pool.Crash()
		st.dev.Reopen()
		lg, err := wal.RecoverLSM(st.pool, lsmCfg, walCfg)
		pr.attempted++
		if err != nil {
			pr.failed++
			continue
		}
		recovered = append(recovered, lg)
		gotLen += lg.Len()
	}
	pr.vals["wal.recover_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	failedBefore := pr.failed
	pr.attempted++
	if gotLen != wantLen {
		pr.failed++
	}
	for k, want := range sys.shadow {
		found, right := 0, false
		for _, lg := range recovered {
			if v, ok := lg.Get(k); ok {
				found++
				right = v == want.v
			}
		}
		pr.attempted++
		if want.live && !(found == 1 && right) || !want.live && found != 0 {
			pr.failed++
		}
	}
	if pr.failed == failedBefore && len(recovered) == len(sys.stacks) {
		pr.vals["wal.recovered_ok"] = 1
	}
}
