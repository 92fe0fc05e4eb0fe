// Command rumserve is the live half of the repository's telemetry story: a
// long-running daemon that stands up the sharded serving layer
// (internal/serve) over one access method, drives it with the same
// deterministic conflict-free client streams as `rumbench -exp serve`
// (bench.StreamGen), and exposes the system's RUM position *while it runs*:
//
//	GET /metrics        Prometheus text: cumulative rum_ro/rum_uo/rum_mo,
//	                    rolling-window rates over the last -window, latency
//	                    histograms, per-shard ops, page and fault counters.
//	GET /debug/rum      JSON: per-shard meters, window stats, config, uptime.
//	GET /debug/slow     the flight recorder's slowest recent requests.
//	GET /debug/workload the merged fingerprint and the advisor's ranking.
//	GET /healthz        liveness probe; /debug/pprof/ the Go profiler.
//
// This file is the shell: flags and validation, lifecycle, the debug
// handlers, and the process and driver gauges. The serving run itself —
// server, preload, verified closed-loop clients, final report row — is
// bench.LiveRun, the run `rumbench -exp serve` times. Each telemetry plane is
// an obs.Source over an obs.Rolling ring that owns its metric families; the
// shell registers the planes whose feature is on: -wal adds rum_wal_*
// (DESIGN.md §10), -workload adds rum_workload_* and the advisor (§12),
// -medium mqssd adds rum_live_batch_*; -mvcc serves pure-read batches off
// snapshots on the client goroutines (§9). A sampler publishes
// LiveRun.Sample into the ring every -scrape; handlers read the ring
// lock-free, so a scraper never blocks a shard and every series of one
// scrape describes the same snapshot instant.
//
// Every live outcome is verified against its generation-time prediction,
// exactly like the serve experiment — a -mix scan=… range scan's row count
// too, and under -mvcc at any -staleness (bench.StableReadGen). On
// SIGINT/SIGTERM the daemon drains its clients, stops the server, and prints
// the same final report as `rumbench -exp serve` — except that the R/U/M
// columns are the live run's cumulative amplifications (a daemon has no
// separate clean replay).
//
//	rumserve -method lsm-level -shards 8 -rate 50000 -addr :9090
//	rumserve -method btree -mvcc -staleness 64 -mix read99
//	rumserve -mix get=0.6,insert=0.1,update=0.1,scan=0.2
//	rumserve -method lsm-level -wal -commit-batch 32
//	rumserve -workload -dist zipf:1.1 -faults seed=7,p_read=0.001 -window 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/methods"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// config is the parsed command line; the flag help strings in run document
// each field.
type config struct {
	method                          string
	shards, clients, batch, n, pool int
	medium                          storage.Medium
	rate                            float64
	mix                             bench.ServeMix
	seed                            int64
	plan                            faults.Plan
	addr                            string
	window, scrape                  time.Duration
	mvcc                            bool
	staleness                       int // serve.Config.StalenessOps under mvcc
	wal                             bool
	commitBatch                     int
	workload                        bool
	workloadWindow                  int
	dist                            bench.KeyDist
}

// daemon owns the running system: the live serving run, the sampling loop,
// and the telemetry plane the HTTP handlers read.
type daemon struct {
	cfg  config
	run  *bench.LiveRun
	ring *obs.Rolling
	reg  *obs.Registry
	// substrate is what the advisor prices on: every shard's pool together.
	substrate model.Params

	start               time.Time
	stopCh, samplerDone chan struct{}
	stopped             bool
}

const (
	// slowTraceCap is the flight-recorder capacity: the slowest recent
	// requests retained for /debug/slow and the shutdown report.
	slowTraceCap = 64
	// mvccRetention is the per-shard version window under -mvcc: published
	// snapshots each structure keeps readable before reclamation.
	mvccRetention = 3
)

// newDaemon starts the live serving run (one client per generated stream),
// registers the telemetry planes the configuration turns on, and starts the
// snapshot sampler.
func newDaemon(cfg config) (*daemon, error) {
	d := &daemon{
		cfg: cfg, reg: obs.NewRegistry(), start: time.Now(),
		ring:   obs.NewRolling(min(max(int(4*cfg.window/cfg.scrape), 16), 4096)), // several windows' worth
		stopCh: make(chan struct{}), samplerDone: make(chan struct{}),
	}
	lc := bench.LiveConfig{
		Method: cfg.method, Shards: cfg.shards, Batch: cfg.batch,
		Storage: methods.Options{
			PoolPages: cfg.pool, Medium: cfg.medium, Faults: cfg.plan,
			WAL: cfg.wal, CommitBatch: cfg.commitBatch,
		},
		Trace: serve.TraceConfig{SlowK: slowTraceCap, SlowTTL: time.Minute},
	}
	d.substrate = lc.Storage.Model(0)
	d.substrate.PoolPages *= cfg.shards
	if cfg.mvcc {
		lc.Storage.Versions, lc.Staleness = mvccRetention, cfg.staleness
	}
	if cfg.workload {
		lc.Workload = &serve.WorkloadConfig{WindowOps: cfg.workloadWindow}
	}
	// Under -mvcc a client is the stable-read composition, whose reads are
	// exact off a snapshot of any staleness.
	streams := make([]bench.Stream, cfg.clients)
	for c := range streams {
		if cfg.mvcc {
			streams[c] = bench.NewStableReadGen(cfg.seed, c, cfg.clients, cfg.mix, cfg.dist, 0)
		} else {
			streams[c] = bench.NewStreamGenDist(cfg.seed, c, cfg.mix, cfg.dist)
		}
	}
	var err error
	if d.run, err = bench.StartLive(lc, streams, cfg.n/cfg.clients, cfg.rate, d.stopCh); err != nil {
		return nil, err
	}

	// Family order is registration order; a plane that is off is not registered.
	d.reg.Register(obs.SourceFunc(d.collectProcessMetrics))
	d.reg.Register(d.ring.RUMSource(cfg.window))
	if cfg.wal {
		d.reg.Register(d.ring.WALSource())
	}
	if cfg.workload {
		d.reg.Register(d.ring.WorkloadSource(cfg.method, d.substrate))
	}
	d.reg.Register(d.ring.PhaseSource())
	d.reg.Register(obs.SourceFunc(func(e *obs.Encoder) { // the drivers' verdict, read live
		e.Counter("rum_outcome_mismatches_total", "Live outcomes that diverged from their generation-time prediction.", d.run.Mismatches())
	}))
	d.reg.Register(d.ring.StorageSource())
	if cfg.medium.Model().Channels > 1 {
		d.reg.Register(d.ring.BatchSource())
	}
	go d.runSampler()
	return d, nil
}

// runSampler publishes one WindowPoint per scrape interval until stopped. A
// dead shard still publishes the live shards' state.
func (d *daemon) runSampler() {
	defer close(d.samplerDone)
	tick := time.NewTicker(d.cfg.scrape)
	defer tick.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-tick.C:
		}
		if p := d.run.Sample(); p != nil {
			d.ring.Push(p)
		}
	}
}

// collectProcessMetrics is the daemon's own health: uptime, staleness of the
// newest snapshot (a wedged sampler shows as it climbing), goroutine count.
func (d *daemon) collectProcessMetrics(e *obs.Encoder) {
	e.Gauge("rum_uptime_seconds", "Seconds since the daemon started.", time.Since(d.start).Seconds())
	age := time.Since(d.start)
	if last := d.ring.Last(); last != nil {
		age = time.Since(last.At)
	}
	e.Gauge("rum_snapshot_age_seconds", "Age of the newest shard snapshot (uptime until the first sample lands).", age.Seconds())
	e.GaugeUint("rum_goroutines", "Goroutines in the daemon process.", uint64(runtime.NumGoroutine()))
}

// writeJSON renders one debug document, indented.
func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// debugRUM is the /debug/rum JSON document.
type debugRUM struct {
	Config        debugConfig `json:"config"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Requests      uint64      `json:"requests"`
	Mismatches    uint64      `json:"mismatches"`
	Cumulative    struct {
		RO      float64 `json:"ro"`
		UO      float64 `json:"uo"`
		MO      float64 `json:"mo"`
		Records int     `json:"records"`
	} `json:"cumulative"`
	WindowSeconds float64          `json:"window_seconds"`
	Window        *obs.WindowStats `json:"window,omitempty"`
	At            time.Time        `json:"at"`
	Shards        []obs.ShardPoint `json:"shards"`
}

type debugConfig struct {
	Method  string  `json:"method"`
	Shards  int     `json:"shards"`
	Clients int     `json:"clients"`
	Batch   int     `json:"batch"`
	Rate    float64 `json:"rate"`
	Mix     string  `json:"mix"`
	Seed    int64   `json:"seed"`
	Preload int     `json:"preload"`
}

// handleDebugRUM renders the live JSON snapshot.
func (d *daemon) handleDebugRUM(w http.ResponseWriter, _ *http.Request) {
	cfg := d.cfg
	doc := debugRUM{
		Config: debugConfig{
			Method: cfg.method, Shards: cfg.shards, Clients: cfg.clients, Batch: cfg.batch,
			Rate: cfg.rate, Mix: cfg.mix.String(), Seed: cfg.seed, Preload: d.run.Preloaded,
		},
		UptimeSeconds: time.Since(d.start).Seconds(),
		Mismatches:    d.run.Mismatches(),
		WindowSeconds: cfg.window.Seconds(),
	}
	if last := d.ring.Last(); last != nil {
		m, sz, ops, records := last.Totals()
		doc.Requests = ops
		doc.Cumulative.RO = jsonSafe(m.ReadAmplification())
		doc.Cumulative.UO = jsonSafe(m.WriteAmplification())
		doc.Cumulative.MO = jsonSafe(sz.SpaceAmplification())
		doc.Cumulative.Records = records
		doc.At, doc.Shards = last.At, last.Shards
	}
	if st, ok := d.ring.Window(cfg.window); ok {
		st.RO, st.UO, st.MO = jsonSafe(st.RO), jsonSafe(st.UO), jsonSafe(st.MO)
		doc.Window = &st
	}
	writeJSON(w, doc)
}

// jsonSafe maps +Inf (legal in our amplification algebra, not in JSON) to -1.
func jsonSafe(v float64) float64 {
	if v > 1e308 || v != v {
		return -1
	}
	return v
}

// handleDebugWorkload renders the fingerprinter's view from the ring: the
// merged snapshot (last window, retained history, drift events) plus the
// advisor's full ranking for the newest window.
func (d *daemon) handleDebugWorkload(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		Enabled   bool                  `json:"enabled"`
		WindowOps int                   `json:"window_ops"`
		Dist      string                `json:"dist"`
		Snapshot  *obs.WorkloadSnapshot `json:"snapshot,omitempty"`
		Last      *obs.FingerprintStats `json:"last,omitempty"`
		Advice    *obs.Advice           `json:"advice,omitempty"`
	}{Enabled: d.cfg.workload, WindowOps: d.cfg.workloadWindow, Dist: d.cfg.dist.String()}
	if last := d.ring.Last(); last != nil && last.Workload != nil {
		doc.Snapshot = last.Workload
		if adv, ok := last.Advise(d.cfg.method, d.substrate); ok {
			st := last.Workload.Last.Stats()
			doc.Last, doc.Advice = &st, &adv
		}
	}
	writeJSON(w, doc)
}

// handleDebugSlow renders the flight recorder, slowest first, each request
// with its queue/service/device decomposition. The read is lock-free.
func (d *daemon) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	traces := d.run.Server.SlowTraces()
	if traces == nil {
		traces = []obs.SlowTrace{}
	}
	writeJSON(w, struct {
		Cap    int             `json:"cap"`
		Traces []obs.SlowTrace `json:"traces"`
	}{Cap: slowTraceCap, Traces: traces})
}

// handler builds the daemon's HTTP mux.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg)
	mux.HandleFunc("/debug/rum", d.handleDebugRUM)
	mux.HandleFunc("/debug/slow", d.handleDebugSlow)
	mux.HandleFunc("/debug/workload", d.handleDebugWorkload)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof registers there
	return mux
}

// stop drains the drivers and the sampler, stops the run, and publishes its
// final point to the ring — the state behind the final report.
func (d *daemon) stop() (bench.ServeResult, error) {
	if d.stopped {
		return bench.ServeResult{}, serve.ErrStopped
	}
	d.stopped = true
	close(d.stopCh)
	<-d.samplerDone
	row, final, err := d.run.Stop()
	d.ring.Push(final)
	return bench.ServeResult{
		N: d.run.Preloaded, Ops: row.Requests,
		Clients: d.cfg.clients, Shards: d.cfg.shards, Batch: d.cfg.batch,
		Rows: []bench.ServeRow{row},
	}, err
}

// loggedMethods names the catalog rows with a write-ahead-logged variant: the
// ones that keep faults.DurableToCommit under methods.Options{WAL: true}.
func loggedMethods() []string {
	var names []string
	for _, s := range methods.Catalog(methods.Options{WAL: true}) {
		if s.Durability == faults.DurableToCommit {
			names = append(names, s.Name)
		}
	}
	return names
}

// run is the whole program behind main: parse flags, start the daemon, serve
// HTTP until a signal (or testSignal closes), then shut down and print the
// final report. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer, testSignal <-chan struct{}) int {
	fs := flag.NewFlagSet("rumserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var mediumSpec, mixSpec, faultSpec, distSpec string
	fs.StringVar(&cfg.method, "method", "btree", "access method to serve (any catalog name but bitmap: btree, hash, lsm-level, skiplist, ...)")
	fs.IntVar(&cfg.shards, "shards", 4, "keyspace shard count")
	fs.IntVar(&cfg.clients, "clients", 4, "concurrent driver clients")
	fs.IntVar(&cfg.batch, "batch", 64, "requests per client batch")
	fs.IntVar(&cfg.n, "n", 16384, "records to preload")
	fs.IntVar(&cfg.pool, "pool", 8, "buffer pool pages per shard")
	fs.StringVar(&mediumSpec, "medium", "ram", "storage medium per shard: ram, ssd, hdd, smr, or mqssd (multi-queue: shard pools submit batched I/O)")
	fs.Float64Var(&cfg.rate, "rate", 0, "target requests/second across all clients (0 = unthrottled)")
	fs.StringVar(&mixSpec, "mix", "", "operation mix, e.g. get=0.5,insert=0.2,update=0.15,delete=0.15,getmiss=0.1 (empty = serve experiment default)")
	fs.Int64Var(&cfg.seed, "seed", 1, "deterministic workload seed")
	fs.StringVar(&faultSpec, "faults", "", "fault plan, e.g. seed=7,p_read=0.01 (empty = no injected faults)")
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
	fs.DurationVar(&cfg.window, "window", 10*time.Second, "rolling window for the _window gauges")
	fs.DurationVar(&cfg.scrape, "scrape", time.Second, "interval between shard snapshots")
	fs.BoolVar(&cfg.mvcc, "mvcc", false, "serve pure-read batches from MVCC snapshots, bypassing the shard mailbox (btree and lsm methods)")
	fs.IntVar(&cfg.staleness, "staleness", 1, "with -mvcc: writes between snapshot publishes (1 = read-your-writes)")
	fs.BoolVar(&cfg.wal, "wal", false, "write-ahead log every mutation ("+strings.Join(loggedMethods(), ", ")+"); upgrades durability to commit, /metrics gains rum_wal_*")
	fs.IntVar(&cfg.commitBatch, "commit-batch", 64, "with -wal: records per group commit; shards also commit at the end of every mailbox batch")
	fs.BoolVar(&cfg.workload, "workload", false, "fingerprint the op stream per shard; /metrics gains rum_workload_*, /debug/workload reports the advisor")
	fs.IntVar(&cfg.workloadWindow, "workload-window", 4096, "with -workload: ops per fingerprint window")
	fs.StringVar(&distSpec, "dist", "", "key-popularity distribution of the driver streams: uniform, zipf:THETA, hotspot:HOT/KEYS (empty = uniform)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// Each bad value names its flag and prints the full usage, so a typo'd
	// unit (`-window 10` meaning 10ns) fails loudly.
	badFlag := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rumserve: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return badFlag("unexpected arguments: %v", fs.Args())
	}
	var err error
	if cfg.mix, err = bench.ParseServeMix(mixSpec); err != nil {
		return badFlag("-mix: %v", err)
	}
	if cfg.plan, err = faults.ParsePlan(faultSpec); err != nil {
		return badFlag("-faults: %v", err)
	}
	if cfg.medium, err = storage.ParseMedium(mediumSpec); err != nil {
		return badFlag("-medium: %v", err)
	}
	if cfg.dist, err = bench.ParseKeyDist(distSpec); err != nil {
		return badFlag("-dist: %v", err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", cfg.shards}, {"clients", cfg.clients}, {"batch", cfg.batch}, {"pool", cfg.pool}, {"staleness", cfg.staleness},
		{"commit-batch", cfg.commitBatch}, {"workload-window", cfg.workloadWindow}} {
		if f.v < 1 {
			return badFlag("-%s must be ≥ 1 (got %d)", f.name, f.v)
		}
	}
	switch {
	case cfg.n < cfg.clients:
		return badFlag("-n must be ≥ -clients (got n=%d, clients=%d)", cfg.n, cfg.clients)
	case cfg.rate < 0:
		return badFlag("-rate must be ≥ 0, 0 meaning unthrottled (got %g)", cfg.rate)
	case cfg.window <= 0:
		return badFlag("-window must be a positive duration (got %v)", cfg.window)
	case cfg.scrape <= 0:
		return badFlag("-scrape must be a positive duration (got %v)", cfg.scrape)
	case cfg.method == "bitmap":
		return badFlag("-method bitmap cannot be served verified: it stores values modulo its cardinality of 16, so reads cannot return what the clients wrote")
	case cfg.wal && cfg.mvcc:
		return badFlag("-wal and -mvcc are mutually exclusive: the log owns the checkpoint machinery the snapshot read path would share")
	}
	// -wal promises durable-to-commit; a row with no logged variant would
	// serve its own weaker contract under that banner.
	if spec, err := methods.Lookup(methods.Options{WAL: true}, cfg.method); cfg.wal && err == nil && spec.Durability != faults.DurableToCommit {
		return badFlag("-wal: %s has no write-ahead-logged variant, so it would serve %s; logged methods: %s",
			cfg.method, spec.Durability, strings.Join(loggedMethods(), ", "))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "rumserve: listen: %v\n", err)
		return 1
	}
	d, err := newDaemon(cfg)
	if err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "rumserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "rumserve: listening on %s\n", ln.Addr())
	fmt.Fprintf(stderr, "rumserve: serving %s across %d shards, %d clients, mix %s\n", cfg.method, cfg.shards, cfg.clients, cfg.mix)
	if cfg.mvcc {
		fmt.Fprintf(stderr, "rumserve: mvcc snapshot reads on (staleness %d writes, retention %d versions)\n", cfg.staleness, mvccRetention)
	}
	if cfg.wal {
		fmt.Fprintf(stderr, "rumserve: write-ahead logging on (commit batch %d, durable to commit)\n", cfg.commitBatch)
	}
	if m := cfg.medium.Model(); m.Channels > 1 {
		fmt.Fprintf(stderr, "rumserve: multi-queue medium %s (read %d, write %d, %d channels; shard pools batch I/O)\n", cfg.medium, m.ReadCost, m.WriteCost, m.Channels)
	}

	httpSrv := &http.Server{Handler: d.handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "rumserve: %v, shutting down\n", sig)
	case <-testSignal:
	case err := <-httpDone:
		fmt.Fprintf(stderr, "rumserve: http: %v\n", err)
		d.stop()
		return 1
	}

	res, stopErr := d.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)

	fmt.Fprint(stdout, res.Render())
	fmt.Fprint(stdout, d.ring.Last().WorkloadReport(cfg.method, d.substrate))
	fmt.Fprint(stderr, res.RenderTiming())
	fmt.Fprint(stderr, d.ring.Last().MailboxReport())
	// The flight recorder outlives Stop: leave the worst offenders on record.
	if traces := d.run.Server.SlowTraces(); len(traces) > 0 {
		n := min(len(traces), 5)
		fmt.Fprintf(stderr, "(slowest %d of %d retained traces)\n", n, len(traces))
		for _, tr := range traces[:n] {
			fmt.Fprintf(stderr, "(  %s)\n", tr)
		}
	}
	if stopErr != nil {
		fmt.Fprintf(stderr, "rumserve: %v\n", stopErr)
		return 1
	}
	if !res.Rows[0].Verified {
		fmt.Fprintf(stderr, "rumserve: %d outcome mismatches\n", res.Rows[0].Mismatches)
		return 1
	}
	return 0
}
