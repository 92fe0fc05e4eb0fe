package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/methods"
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

// serveStreams builds the experiment's client streams from the seed, each
// ending after ops requests: client c draws from its own PCG stream and owns
// the keys tagged c+1 in the high bits (StreamGen), so no two clients ever
// touch the same key and every outcome is decided by the client's own
// program order. Every cell builds its own.
func serveStreams(seed int64, clients, ops int) []Stream {
	streams := make([]Stream, clients)
	for c := range streams {
		streams[c] = &bounded{NewStreamGen(seed, c, DefaultServeMix()), ops}
	}
	return streams
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
	// Replayed is set when the rows' Clean points come from a clean replay;
	// otherwise they are the live run's cumulative amplification.
	Replayed bool
}

// RunServe profiles every serving subject twice over identical client
// streams: a deterministic single-instance replay for the clean RUM point,
// and a live run behind the sharded serving layer for throughput and
// latency, with every live outcome verified against its prediction.
func RunServe(cfg Config, scfg ServeConfig) ServeResult {
	cfg.Defaults()
	scfg.defaults()
	cfg.smallPool()
	perClient, ops := cfg.N/scfg.Clients, cfg.Ops/scfg.Clients
	res := ServeResult{
		N: perClient * scfg.Clients, Ops: ops * scfg.Clients,
		Clients: scfg.Clients, Shards: scfg.Shards, Batch: scfg.Batch, Replayed: true,
	}
	// A method's two cells run concurrently, so each writes its own slot: the
	// serving cell the row, the replay the row's clean point, joined after.
	rows := make([]ServeRow, len(serveMethods))
	clean := make([]rum.Point, len(serveMethods))
	cells := make([]Cell, 0, 2*len(serveMethods))
	for i, name := range serveMethods {
		i, name := i, name
		cells = append(cells, Cell{
			Label: name + "/clean",
			Run: func(ccfg Config) {
				clean[i], _, _ = replay(ccfg, name, name+"/clean", serveStreams(ccfg.Seed, scfg.Clients, ops), perClient, 0)
			},
		})
		cells = append(cells, Cell{
			Label: name + "/serve",
			Run: func(ccfg Config) {
				rows[i] = runServeServing(ccfg, scfg, name, perClient, ops)
			},
		})
	}
	cfg.runCells("serve", cells)
	for i := range rows {
		rows[i].Clean = clean[i]
	}
	res.Rows = rows
	return res
}

// replay applies every client's stream, in client order and per-op order
// (Fill at batch 1), to one instance of method, preloaded with perClient
// records per stream — the canonical sequential execution — and returns the
// measured RUM point: the experiment's deterministic truth, which cannot
// depend on shards, clients, batches, or scheduling because none of those
// exist here. With publishEvery 0 every request goes through serve.Exec;
// with a positive publishEvery the structure publishes a snapshot every
// publishEvery writes — the serving layer's cadence, counted in writes so it
// cannot depend on batching — and gets read the newest one, their meters
// added to the point. It also returns the gets replayed and the version
// retention left at the end. The replay panics unless every outcome and the
// final record count match the streams' predictions, so the counts a live
// run tallies are held to the same predictions. The streams carry no scans.
func replay(cfg Config, method, label string, streams []Stream, perClient, publishEvery int) (clean rum.Point, reads int, retained uint64) {
	spec, err := methods.Lookup(cfg.Storage, method)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", label, err))
	}
	am := spec.New()
	cfg.observe(am, label)
	if err := am.BulkLoad(initRecords(streams, perClient)); err != nil {
		panic(fmt.Sprintf("%s: preload: %v", label, err))
	}
	am.Flush()
	var snap core.Snapshot
	publish := func() {
		if snap != nil {
			snap.Release()
		}
		if err := am.Publish(); err != nil {
			panic(fmt.Sprintf("%s: publish: %v", label, err))
		}
		snap = am.Acquire()
	}
	if publishEvery > 0 {
		publish()
	}
	start := am.Meter().Snapshot()
	var readMeter rum.Meter
	writes, wantLen := 0, 0
	req, want := make([]serve.Request, 1), make([]serve.Result, 1)
	for _, s := range streams {
		for n, _ := s.Fill(req, want); n > 0; n, _ = s.Fill(req, want) {
			var got serve.Result
			if req[0].Op == serve.OpGet && snap != nil {
				got.Value, got.OK = snap.Get(req[0].Key, &readMeter)
			} else {
				got = serve.Exec(am, req[0])
			}
			if req[0].Op == serve.OpGet {
				reads++
			} else if writes++; snap != nil && writes%publishEvery == 0 {
				publish()
			}
			if got != want[0] {
				panic(fmt.Sprintf("%s: replay diverged on %+v: got %+v, want %+v", label, req[0], got, want[0]))
			}
		}
		wantLen += s.Live()
	}
	if snap != nil {
		snap.Release()
	}
	am.Flush()
	if got := am.Len(); got != wantLen {
		panic(fmt.Sprintf("%s: replay left %d records, streams predict %d", label, got, wantLen))
	}
	total := am.Meter().Diff(start)
	total.Add(readMeter)
	return rum.PointOf(total, am.Size()), reads, am.SnapshotStats().RetainedBytes
}

// runServeServing runs the live phase: the method sharded scfg.Shards ways
// behind serve.Server, scfg.Clients concurrent clients submitting their
// streams in scfg.Batch-sized Do calls (StartLive). Outcomes are compared
// against the streams' predictions; the row's wall-clock half goes to the
// stderr report.
func runServeServing(cfg Config, scfg ServeConfig, name string, perClient, ops int) ServeRow {
	// The serving run never reaches the experiment's observer (StartLive
	// hooks each shard's stack to a private recorder): its physical traffic
	// is scheduling-dependent, which must never leak into the deterministic
	// trace/timeseries/metrics artifacts. The clean replay cell carries those.
	sopt := cfg.Storage
	sopt.Faults = faults.Plan{}
	run, err := StartLive(LiveConfig{
		Method: name, Storage: sopt, Shards: scfg.Shards, Batch: scfg.Batch,
	}, serveStreams(cfg.Seed, scfg.Clients, ops), perClient, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("serve: %s: %v", name, err))
	}
	row, _, _ := run.Stop() // a serving failure is the row's ServeErr
	return row
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
	if r.Replayed {
		b.WriteString("\nRO/UO/MO are measured by a deterministic single-instance replay of the\nidentical request streams: amplification is a per-operation property of the\naccess method, so sharding scales throughput without moving the RUM point.\n")
	} else {
		b.WriteString("\nRO/UO/MO are the live run's cumulative amplification, read off the merged\nper-shard meters; no replay ran.\n")
	}
	b.WriteString("\"served ok\" means every live outcome matched its precomputed prediction and\nthe merged per-shard meters conserved the logical byte count exactly.\nThroughput and latency are wall-clock facts; they print to stderr.\n")
	return b.String()
}

// RenderTiming prints the wall-clock half: throughput, latency quantiles,
// and shard balance. Non-deterministic by nature — never part of stdout.
func (r ServeResult) RenderTiming() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(serve timing, non-deterministic: shards=%d clients=%d batch=%d)\n",
		r.Shards, r.Clients, r.Batch)
	for _, row := range r.Rows {
		var lo, hi uint64
		if len(row.ShardOps) > 0 {
			lo, hi = slices.Min(row.ShardOps), slices.Max(row.ShardOps)
		}
		fmt.Fprintf(&b, "(  %-10s %9.0f req/s  p50=%-8v p99=%-8v elapsed=%-8v shard-ops=%d..%d  phys r/w=%s/%s)\n",
			row.Method, row.Throughput,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond),
			row.Elapsed.Round(time.Millisecond),
			lo, hi,
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
