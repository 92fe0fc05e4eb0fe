package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
)

// The serve experiment is the Section-5 outlook made operational: instead of
// replaying a workload against one single-goroutine structure, the same
// access methods go behind the sharded serving layer (internal/serve) and
// take traffic from concurrent clients. The claim under test is the RUM
// separation of concerns: amplification (RO/UO/MO) is a per-operation
// property of the access method, so it must not move when the serving layer
// scales out — sharding buys throughput, not a different RUM point.
//
// Determinism contract. Client streams are conflict-free: each client owns a
// namespaced key range, targets only its own keys, and the server preserves
// per-client submission order, so every request's outcome is computable at
// generation time, before anything runs. stdout reports only facts that are
// independent of shard count, client scheduling, batch size, and worker
// width: the clean RUM point (measured by a deterministic single-instance
// replay of the identical request streams), request/hit/record counts, and
// the outcome-verification verdict of the live serving run. Wall-clock facts
// — throughput, p50/p99 latency, shard balance, the serving run's physical
// traffic (scheduling-dependent through the buffer pool) — go to stderr via
// RenderTiming.

// serveMethods is the serving cast: the three page-backed Table-1 methods
// plus one in-memory structure, each sharded N ways.
var serveMethods = []string{"btree", "hash", "lsm-level", "skiplist"}

// ServeConfig sizes the serving layer of the experiment.
type ServeConfig struct {
	// Shards is the number of keyspace partitions (default 4).
	Shards int
	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// Batch is the number of requests a client groups into one Do call
	// (default 64).
	Batch int
}

func (c *ServeConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
}

// serveStream is one client's pregenerated, conflict-free request stream:
// the records it preloads, the requests it will submit, and — because the
// keyspace is private and order is preserved — the exact expected outcome of
// every request.
type serveStream struct {
	init     []core.Record
	ops      []serve.Request
	want     []serve.Result
	hits     int // expected successful gets
	finalLen int // records this client leaves live at the end
}

// serveStreamSalt separates the serve experiment's PCG streams from every
// other consumer of the seed (the convention internal/faults established).
const serveStreamSalt = 0x5e7e

// serveMix is the serving workload: point-op heavy, no range scans (a
// broadcast scan's row count would depend on other clients' progress, which
// is exactly the nondeterminism the stdout contract excludes).
const (
	serveFracGet    = 0.50
	serveFracInsert = 0.20
	serveFracUpdate = 0.15
	serveGetMiss    = 0.10 // fraction of gets that target an absent key
)

// makeServeStreams generates one conflict-free stream per client: client c
// draws from its own PCG stream and owns the keys tagged c+1 in the high
// bits, so no two clients ever touch the same key and every outcome is
// decided by the client's own program order. The per-op generation lives in
// the exported StreamGen (workload.go), which cmd/rumserve drives
// open-endedly; this wrapper pregenerates a fixed-length slice of it.
func makeServeStreams(seed int64, n, ops, clients int) []serveStream {
	streams := make([]serveStream, clients)
	for c := range streams {
		streams[c] = makeServeStream(seed, c, n/clients, ops/clients)
	}
	return streams
}

func makeServeStream(seed int64, client, nInit, nOps int) serveStream {
	g := NewStreamGen(seed, client, DefaultServeMix())
	st := serveStream{init: g.InitRecords(nInit)}
	st.ops = make([]serve.Request, 0, nOps)
	st.want = make([]serve.Result, 0, nOps)
	for i := 0; i < nOps; i++ {
		req, want := g.Next()
		st.ops = append(st.ops, req)
		st.want = append(st.want, want)
		if req.Op == serve.OpGet && want.OK {
			st.hits++
		}
	}
	st.finalLen = g.Live()
	return st
}

// mergeInit concatenates and sorts every client's preload records — the
// bulk-load input for both the clean replay and the sharded server.
func mergeInit(streams []serveStream) []core.Record {
	var all []core.Record
	for _, st := range streams {
		all = append(all, st.init...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	return all
}

// ServeRow is one method's measurements.
type ServeRow struct {
	Method string

	// Deterministic (stdout).
	Clean      rum.Point // single-instance replay of the same streams
	Requests   int
	Hits       int // expected == measured get hits
	FinalLen   int
	Verified   bool // every serving-run outcome matched its prediction
	Mismatches int
	ServeErr   string // serving-layer failure, "" when clean

	// Wall-clock (stderr).
	Elapsed    time.Duration
	Throughput float64 // requests per second over the serving phase
	P50, P99   time.Duration
	// Lifecycle decomposition of the serving run (request tracing): how long
	// ops waited in shard mailboxes versus how long they executed. Zero when
	// the run was untraced.
	QueueP50, QueueP99     time.Duration
	ServiceP50, ServiceP99 time.Duration
	ShardOps               []uint64
	ServeMeter             rum.Meter // merged per-shard meters (physical side is scheduling-dependent)
}

// ServeResult is the rendered serve experiment.
type ServeResult struct {
	N, Ops, Clients int
	Shards, Batch   int
	Rows            []ServeRow
}

// RunServe profiles every serving subject twice over identical pregenerated
// client streams: a deterministic single-instance replay for the clean RUM
// point, and a live run behind the sharded serving layer for throughput and
// latency, with every live outcome verified against its prediction.
func RunServe(cfg Config, scfg ServeConfig) ServeResult {
	cfg.Defaults()
	scfg.defaults()
	if cfg.Storage.PoolPages == 0 {
		// Same honesty rule as Figure 1: MEM small relative to N, or the
		// pool hides the device and every method looks read-optimal.
		cfg.Storage.PoolPages = 8
	}
	streams := makeServeStreams(cfg.Seed, cfg.N, cfg.Ops, scfg.Clients)
	allInit := mergeInit(streams)

	res := ServeResult{N: len(allInit), Clients: scfg.Clients, Shards: scfg.Shards, Batch: scfg.Batch}
	for _, st := range streams {
		res.Ops += len(st.ops)
	}
	rows := make([]ServeRow, len(serveMethods))
	cells := make([]Cell, 0, 2*len(serveMethods))
	for i, name := range serveMethods {
		i, name := i, name
		cells = append(cells, Cell{
			Label: name + "/clean",
			Run: func(ccfg Config) {
				runServeClean(ccfg, name, streams, allInit, &rows[i])
			},
		})
		cells = append(cells, Cell{
			Label: name + "/serve",
			Run: func(ccfg Config) {
				runServeServing(ccfg, scfg, name, streams, allInit, &rows[i])
			},
		})
	}
	cfg.runCells("serve", cells)
	res.Rows = rows
	return res
}

// runServeClean replays every client's stream, in client order, against one
// instance of the method — the canonical sequential execution. The measured
// RUM point is the experiment's deterministic truth: it cannot depend on
// shards, clients, batches, or scheduling because none of those exist here.
func runServeClean(cfg Config, name string, streams []serveStream, allInit []core.Record, row *ServeRow) {
	spec, err := methods.Lookup(cfg.Storage, name)
	if err != nil {
		panic(fmt.Sprintf("serve: %s: %v", name, err))
	}
	am := spec.New()
	cfg.observe(am, name+"/clean")
	if err := am.BulkLoad(allInit); err != nil {
		panic(fmt.Sprintf("serve: %s: preload: %v", name, err))
	}
	am.Flush()
	start := am.Meter().Snapshot()
	requests, hits, finalLen := 0, 0, 0
	for _, st := range streams {
		for i := range st.ops {
			req, want := st.ops[i], st.want[i]
			got := serve.Exec(am, req)
			if got != want {
				panic(fmt.Sprintf("serve: %s: clean replay diverged on %+v: got %+v, want %+v", name, req, got, want))
			}
			if req.Op == serve.OpGet && got.OK {
				hits++
			}
		}
		requests += len(st.ops)
		finalLen += st.finalLen
	}
	am.Flush()
	row.Method = name
	row.Clean = rum.PointOf(am.Meter().Diff(start), am.Size())
	row.Requests = requests
	row.Hits = hits
	row.FinalLen = finalLen
	if got := am.Len(); got != finalLen {
		panic(fmt.Sprintf("serve: %s: clean replay left %d records, streams predict %d", name, got, finalLen))
	}
}

// runServeServing runs the live phase: the method sharded scfg.Shards ways
// behind serve.Server, scfg.Clients concurrent clients submitting their
// streams in scfg.Batch-sized Do calls. Outcomes are compared against the
// pregenerated predictions; timing and latency are recorded per client and
// merged (obs.Histogram.Merge) for the stderr report.
func runServeServing(cfg Config, scfg ServeConfig, name string, streams []serveStream, allInit []core.Record, row *ServeRow) {
	// The serving run is intentionally untraced: its physical traffic is
	// scheduling-dependent (pool state interleaves across clients), which
	// must never leak into the deterministic trace/timeseries/metrics
	// artifacts. The clean replay cell carries the observability.
	sopt := cfg.Storage
	sopt.Hook = nil
	sopt.Faults = faults.Plan{}
	spec, err := methods.Lookup(sopt, name)
	if err != nil {
		panic(fmt.Sprintf("serve: %s: %v", name, err))
	}
	srv, err := serve.New(serve.Config{
		Shards:   scfg.Shards,
		MaxBatch: scfg.Batch,
		Build:    func(int) *core.Instrumented { return spec.New() },
		// Lifecycle tracing is wall-clock-only output (stderr), so unlike the
		// storage hook it cannot leak scheduling into the stdout contract.
		Trace: &serve.TraceConfig{},
	})
	if err != nil {
		panic(fmt.Sprintf("serve: %s: %v", name, err))
	}
	if err := srv.Preload(allInit); err != nil {
		panic(fmt.Sprintf("serve: %s: preload: %v", name, err))
	}

	type clientTally struct {
		mismatches int
		hist       *obs.Histogram
	}
	tallies := make([]clientTally, len(streams))
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &streams[c]
			tally := &tallies[c]
			tally.hist = obs.NewLatencyHistogram()
			res := make([]serve.Result, scfg.Batch)
			for off := 0; off < len(st.ops); off += scfg.Batch {
				end := off + scfg.Batch
				if end > len(st.ops) {
					end = len(st.ops)
				}
				chunk := st.ops[off:end]
				t0 := time.Now()
				if err := srv.Do(chunk, res[:len(chunk)]); err != nil {
					tally.mismatches += len(chunk)
					continue
				}
				tally.hist.RecordDuration(time.Since(t0))
				for i := range chunk {
					if res[i] != st.want[off+i] {
						tally.mismatches++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Flush(); err != nil {
		panic(fmt.Sprintf("serve: %s: flush: %v", name, err))
	}
	elapsed := time.Since(begin)
	reports, err := srv.Stop()
	if err != nil {
		row.ServeErr = err.Error()
	}
	meter, _, n := serve.Aggregate(reports)

	latency := obs.NewLatencyHistogram()
	mismatches := 0
	for _, t := range tallies {
		mismatches += t.mismatches
		latency.Merge(t.hist)
	}
	requests := 0
	for _, st := range streams {
		requests += len(st.ops)
	}
	wantLen := 0
	for _, st := range streams {
		wantLen += st.finalLen
	}
	row.Mismatches = mismatches
	row.Verified = mismatches == 0 && row.ServeErr == "" && n == wantLen &&
		meter.LogicalWritten == uint64(len(allInit)+countWrites(streams))*core.RecordSize
	row.Elapsed = elapsed
	if s := elapsed.Seconds(); s > 0 {
		row.Throughput = float64(requests) / s
	}
	row.P50 = latency.QuantileDuration(0.50)
	row.P99 = latency.QuantileDuration(0.99)
	if ph := serve.AggregatePhases(reports); ph != nil {
		row.QueueP50 = ph.Queue.QuantileDuration(0.50)
		row.QueueP99 = ph.Queue.QuantileDuration(0.99)
		row.ServiceP50 = ph.Service.QuantileDuration(0.50)
		row.ServiceP99 = ph.Service.QuantileDuration(0.99)
	}
	row.ShardOps = make([]uint64, len(reports))
	for i, r := range reports {
		row.ShardOps[i] = r.Ops
	}
	row.ServeMeter = meter
}

// countWrites returns the number of requests that account a logical write
// (insert/update/delete) across all streams — the exact-conservation check
// for the merged per-shard meters.
func countWrites(streams []serveStream) int {
	n := 0
	for _, st := range streams {
		for _, op := range st.ops {
			if op.Op != serve.OpGet {
				n++
			}
		}
	}
	return n
}

// Render prints the deterministic half of the experiment. Every column is
// independent of shard count, batch size, and scheduling by construction;
// cmd/rumbench's TestServeShardDeterminism diffs this output across shard
// counts and pool widths to hold that contract.
func (r ServeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving layer (Section-5 outlook): access methods behind sharded actors\n")
	fmt.Fprintf(&b, "%d records preloaded, %d requests across %d conflict-free client streams\n\n",
		r.N, r.Ops, r.Clients)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		verdict := "ok"
		if !row.Verified {
			verdict = fmt.Sprintf("FAIL(%d mismatches %s)", row.Mismatches, row.ServeErr)
		}
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%.2f", row.Clean.R),
			fmt.Sprintf("%.2f", row.Clean.U),
			fmt.Sprintf("%.3f", row.Clean.M),
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%d", row.Hits),
			fmt.Sprintf("%d", row.FinalLen),
			verdict,
		})
	}
	b.WriteString(table([]string{"method", "RO", "UO", "MO", "requests", "hits", "final", "served"}, rows))
	b.WriteString("\nRO/UO/MO are measured by a deterministic single-instance replay of the\nidentical request streams: amplification is a per-operation property of the\naccess method, so sharding scales throughput without moving the RUM point.\n\"served ok\" means every live outcome matched its precomputed prediction and\nthe merged per-shard meters conserved the logical byte count exactly.\nThroughput and latency are wall-clock facts; they print to stderr.\n")
	return b.String()
}

// RenderTiming prints the wall-clock half: throughput, latency quantiles,
// and shard balance. Non-deterministic by nature — never part of stdout.
func (r ServeResult) RenderTiming() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(serve timing, non-deterministic: shards=%d clients=%d batch=%d)\n",
		r.Shards, r.Clients, r.Batch)
	for _, row := range r.Rows {
		min, max := ^uint64(0), uint64(0)
		for _, ops := range row.ShardOps {
			if ops < min {
				min = ops
			}
			if ops > max {
				max = ops
			}
		}
		if len(row.ShardOps) == 0 {
			min = 0
		}
		fmt.Fprintf(&b, "(  %-10s %9.0f req/s  p50=%-8v p99=%-8v elapsed=%-8v shard-ops=%d..%d  phys r/w=%s/%s)\n",
			row.Method, row.Throughput,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond),
			row.Elapsed.Round(time.Millisecond),
			min, max,
			fmtBytes(float64(row.ServeMeter.PhysicalRead())), fmtBytes(float64(row.ServeMeter.PhysicalWritten())))
		if row.QueueP99 != 0 || row.ServiceP99 != 0 {
			// Per-op decomposition: batch p99 above is a Do round-trip, so
			// queue p99 (mailbox + in-batch wait) dominating service p99
			// means the latency lives in queueing, not in the structure.
			fmt.Fprintf(&b, "(  %-10s   per-op queue p50/p99=%v/%v  service p50/p99=%v/%v)\n",
				"", row.QueueP50.Round(time.Microsecond), row.QueueP99.Round(time.Microsecond),
				row.ServiceP50.Round(time.Microsecond), row.ServiceP99.Round(time.Microsecond))
		}
	}
	return b.String()
}
