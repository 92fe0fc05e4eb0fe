// Command rumserve is the live half of the repository's telemetry story: a
// long-running daemon that stands up the sharded serving layer
// (internal/serve) over one access method, drives it with the same
// deterministic conflict-free client streams as `rumbench -exp serve`
// (bench.StreamGen), and exposes the system's RUM position *while it runs*:
//
//	GET /metrics      Prometheus text format: cumulative rum_ro/rum_uo/rum_mo
//	                  gauges, rolling-window rates over the last -window,
//	                  request-latency histograms with le buckets, per-shard
//	                  op counters, shard-balance gauge, fault counters.
//	GET /debug/rum    JSON snapshot: per-shard meters, rolling-window stats,
//	                  uptime, config, verification counters.
//	GET /healthz      liveness probe.
//	GET /debug/pprof/ the standard Go profiler endpoints.
//
// A sampling loop calls serve.Server.Snapshot every -scrape interval — a
// non-destructive broadcast answered by each shard on its own goroutine —
// and publishes the points into an obs.Rolling ring; scrape handlers read
// the ring lock-free, so an aggressive scraper never blocks a shard. With
// no scraper attached the only telemetry cost is the snapshot itself:
// O(shards) per -scrape tick, microseconds against a 1-second default.
//
// Every live outcome is still verified against its generation-time
// prediction, exactly like the serve experiment; mismatches surface in
// /metrics and in the final report. On SIGINT/SIGTERM the daemon drains its
// clients, stops the server, and prints the same final report as
// `rumbench -exp serve` — with the one honest difference that the R/U/M
// columns are the live run's cumulative amplifications (there is no
// separate clean replay in a daemon).
//
// Usage:
//
//	rumserve -method lsm-level -shards 8 -rate 50000 -addr :9090
//	rumserve -method btree -mix get=0.8,insert=0.1,update=0.05,delete=0.05
//	rumserve -method btree -mvcc -mix read99
//	rumserve -method lsm-level -wal -commit-batch 32
//	rumserve -faults seed=7,p_read=0.001 -window 30s -scrape 500ms
//
// With -mvcc, pure-read batches are served lock-free from published MVCC
// snapshots on the client goroutines (DESIGN.md §9); /metrics gains
// rum_snapshot_versions{shard}, rum_reader_concurrency, and
// rum_snapshot_reads_total, and -staleness sets the publish cadence.
//
// With -wal, every mutation is framed into its shard's write-ahead log
// before it is acknowledged and the shard group-commits once per mailbox
// batch (DESIGN.md §10) — the durability contract becomes DurableToCommit;
// /metrics gains the rum_wal_* families (commits, syncs, checkpoints, log
// pages and bytes, the committed watermark).
//
// With -workload, every shard fingerprints its op stream in op-count
// windows (DESIGN.md §12): mix, heavy-hitter skew, working-set cardinality,
// and window-to-window drift, with a report-only RUM advisor pricing each
// window against the catalog. /metrics gains the rum_workload_* families,
// /debug/workload serves the merged snapshot plus the advisor's full
// ranking, and the final report carries the advisor's verdict. -dist skews
// the driver streams' key popularity (zipf:1.1, hotspot:90/10) to give the
// fingerprinter something to see. Without -workload the scrape is
// byte-identical to unfingerprinted builds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
	"repro/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// config is the parsed command line.
type config struct {
	method  string
	shards  int
	clients int
	batch   int
	n       int
	pool    int
	// medium is the simulated storage medium under every shard. On a
	// multi-queue medium (mqssd) each shard's pool submits batched I/O and
	// /metrics gains the rum_live_batch_* families.
	medium     storage.Medium
	mediumSpec string
	rate       float64
	mix        bench.ServeMix
	mixSpec    string
	seed       int64
	plan       faults.Plan
	addr       string
	window     time.Duration
	scrape     time.Duration
	// mvcc turns on the serving layer's snapshot read path: pure-read
	// batches bypass the mailbox onto the client goroutine. staleness is
	// serve.Config.StalenessOps (writes between snapshot publishes).
	mvcc      bool
	staleness int
	// wal builds the structures behind a write-ahead log
	// (faults.DurableToCommit); commitBatch is the group-commit size — the
	// shards additionally commit at the end of every mailbox batch.
	wal         bool
	commitBatch int
	// workload turns on the shards' workload fingerprinter (op-count
	// windows of workloadWindow ops); dist sets the generated streams' key
	// popularity (uniform, zipf:θ, hotspot:HOT/KEYS).
	workload       bool
	workloadWindow int
	dist           bench.KeyDist
	distSpec       string
}

// atomicHook counts storage events across all shard goroutines — the
// concurrency-safe subset of what a full obs.Observer attributes. It feeds
// the live rum_live_pages_total and rum_fault_events_total series.
type atomicHook struct {
	reads, writes                  atomic.Uint64
	faults, torn, crashes, retries atomic.Uint64
	batches, batchedPages          atomic.Uint64
}

// StorageBatch implements storage.BatchHook: on a multi-queue medium each
// shard pool's amortized submissions land here. The per-page events of the
// batch have already arrived through StorageEvent.
func (h *atomicHook) StorageBatch(_ bool, pages, _ int, _ uint64) {
	h.batches.Add(1)
	h.batchedPages.Add(uint64(pages))
}

// teeHook fans one shard's storage events out to the process-wide atomic
// counters and to the shard's own phase recorder. Both sinks are safe for
// the shard goroutine: the atomics by construction, the recorder because it
// is only ever touched by its owning shard.
type teeHook struct {
	global *atomicHook
	shard  *obs.PhaseRecorder
}

// StorageEvent implements storage.Hook.
func (t teeHook) StorageEvent(ev storage.Event, id storage.PageID, class rum.Class, cost uint64) {
	t.global.StorageEvent(ev, id, class, cost)
	t.shard.StorageEvent(ev, id, class, cost)
}

// StorageBatch implements storage.BatchHook, feeding the process-wide batch
// counters. The shard's phase recorder already saw the batch's per-page
// events through StorageEvent, so only the global sink needs the summary.
func (t teeHook) StorageBatch(write bool, pages, depth int, cost uint64) {
	t.global.StorageBatch(write, pages, depth, cost)
}

// StorageEvent implements storage.Hook.
func (h *atomicHook) StorageEvent(ev storage.Event, _ storage.PageID, _ rum.Class, _ uint64) {
	switch ev {
	case storage.EvRead:
		h.reads.Add(1)
	case storage.EvWrite:
		h.writes.Add(1)
	case storage.EvFault:
		h.faults.Add(1)
	case storage.EvTorn:
		h.faults.Add(1)
		h.torn.Add(1)
	case storage.EvCrash:
		h.crashes.Add(1)
	case storage.EvRetry:
		h.retries.Add(1)
	}
}

// latencyRecorder is one client's latency histogram, mutex-guarded so the
// sampling loop can clone it at snapshot instants. The lock is taken once
// per batch (client side) and once per scrape tick (sampler side).
type latencyRecorder struct {
	mu sync.Mutex
	h  *obs.Histogram
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{h: obs.NewLatencyHistogram()}
}

func (l *latencyRecorder) record(d time.Duration) {
	l.mu.Lock()
	l.h.RecordDuration(d)
	l.mu.Unlock()
}

func (l *latencyRecorder) clone() *obs.Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Clone()
}

// daemon owns the running system: the sharded server, the driving clients,
// the sampling loop, and the telemetry plane the HTTP handlers read.
type daemon struct {
	cfg  config
	srv  *serve.Server
	ring *obs.Rolling
	reg  *obs.Registry
	hook *atomicHook
	// recs[i] is shard i's phase recorder, written by the TraceConfig
	// Recorder callback on shard i's goroutine just before Build reads it
	// back to wire the tee hook — same goroutine, disjoint slots, no race.
	recs []*obs.PhaseRecorder

	gens []*bench.StreamGen
	lats []*latencyRecorder

	preload    int
	start      time.Time
	submitted  atomic.Uint64 // requests submitted by drivers
	hits       atomic.Uint64 // predicted-and-confirmed get hits
	mismatches atomic.Uint64 // outcomes that diverged from prediction
	doErrs     atomic.Uint64 // Do calls that failed outright

	stopCh  chan struct{}
	wg      sync.WaitGroup // drivers + sampler
	stopped bool
	// finalWorkload is the merged fingerprint snapshot captured at Stop —
	// the state behind the final report's advisor lines.
	finalWorkload *obs.WorkloadSnapshot
}

// slowTraceCap is the flight-recorder capacity: the slowest recent requests
// retained for /debug/slow and the shutdown report.
const slowTraceCap = 64

// mvccRetention is the per-shard version window under -mvcc: how many
// published snapshots each structure keeps readable before reclamation.
const mvccRetention = 3

// newDaemon builds the serving stack, preloads it, and starts the client
// drivers and the snapshot sampler.
func newDaemon(cfg config) (*daemon, error) {
	d := &daemon{
		cfg:    cfg,
		ring:   obs.NewRolling(ringCapacity(cfg.window, cfg.scrape)),
		reg:    obs.NewRegistry(),
		hook:   &atomicHook{},
		stopCh: make(chan struct{}),
		start:  time.Now(),
	}
	opt := methods.Options{PoolPages: cfg.pool, Medium: cfg.medium, Hook: d.hook}
	if cfg.mvcc {
		opt.Versions = mvccRetention
	}
	if cfg.wal {
		opt.WAL = true
		opt.CommitBatch = cfg.commitBatch
	}
	if _, err := methods.Lookup(opt, cfg.method); err != nil {
		return nil, err
	}
	d.recs = make([]*obs.PhaseRecorder, cfg.shards)
	var wl *serve.WorkloadConfig
	if cfg.workload {
		wl = &serve.WorkloadConfig{WindowOps: cfg.workloadWindow}
	}
	srv, err := serve.New(serve.Config{
		Shards:       cfg.shards,
		MaxBatch:     cfg.batch,
		Snapshots:    cfg.mvcc,
		StalenessOps: cfg.staleness,
		Workload:     wl,
		Trace: &serve.TraceConfig{
			SlowK:   slowTraceCap,
			SlowTTL: time.Minute,
			Recorder: func(i int) *obs.PhaseRecorder {
				d.recs[i] = obs.NewPhaseRecorder()
				return d.recs[i]
			},
		},
		Build: func(i int) *core.Instrumented {
			o := opt
			// The Recorder callback already ran on this goroutine, so the
			// shard's storage stack can tee its events into the recorder:
			// traces then carry per-op page/fault/retry attribution.
			o.Hook = teeHook{global: d.hook, shard: d.recs[i]}
			if cfg.plan.Active() {
				o.Faults = cfg.plan.Salted(fmt.Sprintf("rumserve-shard-%d", i))
			}
			spec, err := methods.Lookup(o, cfg.method)
			if err != nil {
				panic(err)
			}
			return spec.New()
		},
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv

	var init []core.Record
	for c := 0; c < cfg.clients; c++ {
		g := bench.NewStreamGenDist(cfg.seed, c, cfg.mix, cfg.dist)
		d.gens = append(d.gens, g)
		d.lats = append(d.lats, newLatencyRecorder())
		init = append(init, g.InitRecords(cfg.n/cfg.clients)...)
	}
	init = bench.MergeRecords(init)
	d.preload = len(init)
	if err := srv.Preload(init); err != nil {
		srv.Stop()
		return nil, err
	}

	d.reg.Register(obs.SourceFunc(d.collectProcessMetrics))
	d.reg.Register(obs.SourceFunc(d.collectMetrics))
	d.wg.Add(1)
	go d.runSampler()
	for c := 0; c < cfg.clients; c++ {
		d.wg.Add(1)
		go d.runClient(c)
	}
	return d, nil
}

// ringCapacity sizes the snapshot ring to hold several windows' worth of
// scrape-interval points.
func ringCapacity(window, scrape time.Duration) int {
	if scrape <= 0 {
		scrape = time.Second
	}
	n := int(4 * window / scrape)
	if n < 16 {
		n = 16
	}
	if n > 4096 {
		n = 4096
	}
	return n
}

// runClient is one driver: generate a batch, submit it, verify the
// outcomes, pace to the configured rate.
func (d *daemon) runClient(c int) {
	defer d.wg.Done()
	g := d.gens[c]
	lat := d.lats[c]
	reqs := make([]serve.Request, d.cfg.batch)
	want := make([]serve.Result, d.cfg.batch)
	res := make([]serve.Result, d.cfg.batch)
	var interval time.Duration
	if d.cfg.rate > 0 {
		perClient := d.cfg.rate / float64(d.cfg.clients)
		interval = time.Duration(float64(d.cfg.batch) / perClient * float64(time.Second))
	}
	next := time.Now()
	for {
		select {
		case <-d.stopCh:
			return
		default:
		}
		for i := range reqs {
			reqs[i], want[i] = g.Next()
		}
		t0 := time.Now()
		if err := d.srv.Do(reqs, res); err != nil {
			d.doErrs.Add(1)
			return
		}
		lat.record(time.Since(t0))
		d.submitted.Add(uint64(len(reqs)))
		for i := range res {
			if res[i] != want[i] {
				d.mismatches.Add(1)
			} else if reqs[i].Op == serve.OpGet && want[i].OK {
				d.hits.Add(1)
			}
		}
		if interval > 0 {
			next = next.Add(interval)
			if wait := time.Until(next); wait > 0 {
				select {
				case <-d.stopCh:
					return
				case <-time.After(wait):
				}
			} else if wait < -time.Second {
				next = time.Now() // fell behind by over a second: don't burst
			}
		}
	}
}

// runSampler publishes one WindowPoint per scrape interval: a
// non-destructive server snapshot plus a merged clone of the clients'
// cumulative latency histograms.
func (d *daemon) runSampler() {
	defer d.wg.Done()
	tick := time.NewTicker(d.cfg.scrape)
	defer tick.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-tick.C:
		}
		d.sampleOnce()
	}
}

// sampleOnce takes one snapshot and pushes it into the ring. A snapshot
// error (a dead shard) still publishes the live shards' state.
func (d *daemon) sampleOnce() {
	reports, err := d.srv.Snapshot()
	if err != nil && reports == nil {
		return
	}
	merged := obs.NewLatencyHistogram()
	for _, l := range d.lats {
		merged.Merge(l.clone())
	}
	p := &obs.WindowPoint{
		At: time.Now(), Latency: merged,
		Phases:   serve.AggregatePhases(reports),
		Workload: serve.AggregateWorkload(reports),
	}
	for _, r := range reports {
		p.Shards = append(p.Shards, obs.ShardPoint{
			Shard: r.Shard, Ops: r.Ops, Meter: r.Meter, Size: r.Size, Len: r.Len,
			SnapVersions: r.SnapVersions, WAL: r.WAL,
		})
	}
	d.ring.Push(p)
}

// collectProcessMetrics is the daemon's own health as a metric source:
// uptime, staleness of the newest snapshot (a wedged sampler shows up as
// this gauge climbing), and the goroutine count.
func (d *daemon) collectProcessMetrics(e *obs.Encoder) {
	e.Family("rum_uptime_seconds", "gauge", "Seconds since the daemon started.")
	e.Float("rum_uptime_seconds", nil, time.Since(d.start).Seconds())
	e.Family("rum_snapshot_age_seconds", "gauge", "Age of the newest shard snapshot (uptime until the first sample lands).")
	age := time.Since(d.start)
	if last := d.ring.Last(); last != nil {
		age = time.Since(last.At)
	}
	e.Float("rum_snapshot_age_seconds", nil, age.Seconds())
	e.Family("rum_goroutines", "gauge", "Goroutines in the daemon process.")
	e.Uint("rum_goroutines", nil, uint64(runtime.NumGoroutine()))
}

// collectMetrics is the daemon's live metric source, rendered by the
// obs.Registry on every /metrics scrape. All values derive from the
// snapshot ring and atomic counters — nothing here touches the shards.
func (d *daemon) collectMetrics(e *obs.Encoder) {
	var m rum.Meter
	var sz rum.SizeInfo
	var ops uint64
	var records int
	last := d.ring.Last()
	lat := obs.NewLatencyHistogram()
	if last != nil {
		m, sz, ops, records = last.Totals()
		if last.Latency != nil {
			lat = last.Latency
		}
	}
	e.Family("rum_requests_total", "counter", "Requests executed by the shards, from the newest snapshot.")
	e.Uint("rum_requests_total", nil, ops)
	e.Family("rum_records", "gauge", "Records live across all shards.")
	e.Uint("rum_records", nil, uint64(records))
	e.Family("rum_ro", "gauge", "Cumulative read amplification (physical read bytes per logical read byte).")
	e.Float("rum_ro", nil, m.ReadAmplification())
	e.Family("rum_uo", "gauge", "Cumulative write amplification (physical written bytes per logical written byte).")
	e.Float("rum_uo", nil, m.WriteAmplification())
	e.Family("rum_mo", "gauge", "Space amplification at the newest snapshot (stored bytes per base byte).")
	e.Float("rum_mo", nil, sz.SpaceAmplification())

	st, haveWin := d.ring.Window(d.cfg.window)
	e.Family("rum_window_seconds", "gauge", "Actual span of the rolling window behind the _window gauges.")
	e.Float("rum_window_seconds", nil, st.Span.Seconds())
	e.Family("rum_ro_window", "gauge", "Read amplification of the traffic inside the rolling window alone.")
	e.Float("rum_ro_window", nil, st.RO)
	e.Family("rum_uo_window", "gauge", "Write amplification of the traffic inside the rolling window alone.")
	e.Float("rum_uo_window", nil, st.UO)
	e.Family("rum_mo_window", "gauge", "Space amplification at the window's newest instant.")
	e.Float("rum_mo_window", nil, st.MO)
	e.Family("rum_window_ops_per_sec", "gauge", "Request throughput over the rolling window.")
	e.Float("rum_window_ops_per_sec", nil, st.OpsPerSec)
	e.Family("rum_window_read_bytes_per_op", "gauge", "Physical bytes read per request over the rolling window.")
	e.Float("rum_window_read_bytes_per_op", nil, st.ReadBytesPerOp)
	e.Family("rum_window_write_bytes_per_op", "gauge", "Physical bytes written per request over the rolling window.")
	e.Float("rum_window_write_bytes_per_op", nil, st.WriteBytesPerOp)
	e.Family("rum_window_p50_ns", "gauge", "Median batch latency of requests completed inside the rolling window.")
	e.Float("rum_window_p50_ns", nil, float64(st.P50))
	e.Family("rum_window_p99_ns", "gauge", "p99 batch latency of requests completed inside the rolling window.")
	e.Float("rum_window_p99_ns", nil, float64(st.P99))
	e.Family("rum_window_queue_p99_seconds", "gauge", "p99 mailbox queue wait of ops executed inside the rolling window.")
	e.Float("rum_window_queue_p99_seconds", nil, st.QueueP99.Seconds())
	e.Family("rum_window_service_p99_seconds", "gauge", "p99 service time of ops executed inside the rolling window.")
	e.Float("rum_window_service_p99_seconds", nil, st.ServiceP99.Seconds())
	e.Family("rum_shard_balance", "gauge", "min/max per-shard ops inside the rolling window (1 = even).")
	if haveWin {
		e.Float("rum_shard_balance", nil, st.Balance)
	} else {
		e.Float("rum_shard_balance", nil, 1)
	}

	e.Family("rum_shard_ops_total", "counter", "Requests executed per shard, from the newest snapshot.")
	if last != nil {
		for _, s := range last.Shards {
			e.Uint("rum_shard_ops_total", obs.L("shard", fmt.Sprintf("%d", s.Shard)), s.Ops)
		}
	}

	e.Family("rum_snapshot_versions", "gauge", "Retained MVCC snapshot versions per shard (0 when snapshot serving is off).")
	if last != nil {
		for _, s := range last.Shards {
			e.Uint("rum_snapshot_versions", obs.L("shard", fmt.Sprintf("%d", s.Shard)), uint64(s.SnapVersions))
		}
	}
	active, snapReads := d.srv.ReaderStats()
	e.Family("rum_reader_concurrency", "gauge", "Snapshot bypass readers executing right now on client goroutines.")
	e.Uint("rum_reader_concurrency", nil, uint64(active))
	e.Family("rum_snapshot_reads_total", "counter", "Requests served from MVCC snapshots, bypassing the shard mailbox.")
	e.Uint("rum_snapshot_reads_total", nil, snapReads)

	// Durability plane: present only when at least one shard is write-ahead
	// logged, so an unlogged daemon's scrape stays byte-identical to before.
	var wp obs.WALPoint
	haveWAL := false
	if last != nil {
		for _, s := range last.Shards {
			if s.WAL == nil {
				continue
			}
			haveWAL = true
			wp.Committed += s.WAL.Committed
			wp.Commits += s.WAL.Commits
			wp.Syncs += s.WAL.Syncs
			wp.Checkpoints += s.WAL.Checkpoints
			wp.LogPagesWritten += s.WAL.LogPagesWritten
			wp.LogBytesWritten += s.WAL.LogBytesWritten
			wp.PagesRecycled += s.WAL.PagesRecycled
			wp.LiveLogPages += s.WAL.LiveLogPages
			wp.OverlayRecords += s.WAL.OverlayRecords
		}
	}
	if haveWAL {
		e.Family("rum_wal_committed_total", "counter", "Records durably group-committed across all shards (the DurableToCommit watermark).")
		e.Uint("rum_wal_committed_total", nil, wp.Committed)
		e.Family("rum_wal_commits_total", "counter", "Group commits across all shards.")
		e.Uint("rum_wal_commits_total", nil, wp.Commits)
		e.Family("rum_wal_syncs_total", "counter", "Simulated log syncs across all shards (one per commit, one per checkpoint record).")
		e.Uint("rum_wal_syncs_total", nil, wp.Syncs)
		e.Family("rum_wal_checkpoints_total", "counter", "Completed checkpoints across all shards.")
		e.Uint("rum_wal_checkpoints_total", nil, wp.Checkpoints)
		e.Family("rum_wal_log_pages_total", "counter", "Log pages across all shards, by disposition.")
		e.Uint("rum_wal_log_pages_total", obs.L("event", "written"), wp.LogPagesWritten)
		e.Uint("rum_wal_log_pages_total", obs.L("event", "recycled"), wp.PagesRecycled)
		e.Family("rum_wal_log_bytes_total", "counter", "Log bytes appended across all shards (headers and payload, not page slack).")
		e.Uint("rum_wal_log_bytes_total", nil, wp.LogBytesWritten)
		e.Family("rum_wal_live_log_pages", "gauge", "Log pages not yet recycled, across all shards.")
		e.Uint("rum_wal_live_log_pages", nil, uint64(wp.LiveLogPages))
		e.Family("rum_wal_overlay_records", "gauge", "Logged records not yet absorbed into the structures by a checkpoint.")
		e.Uint("rum_wal_overlay_records", nil, uint64(wp.OverlayRecords))
	}

	// Workload fingerprint plane: present only with -workload, so the
	// default scrape stays byte-identical to unfingerprinted builds.
	if last != nil && last.Workload != nil {
		d.collectWorkloadMetrics(e, last.Workload)
	}

	e.Family("rum_request_latency_ns", "histogram", "Per-batch request latency in nanoseconds (power-of-two buckets).")
	e.Histo("rum_request_latency_ns", nil, lat)

	// Lifecycle decomposition: per-op queue wait and service time, rendered
	// in base-unit seconds from the same nanosecond buckets. The service
	// histogram's bucket lines carry exemplars — the worst recent op that
	// landed in each bucket, with its full decomposition.
	if last != nil && last.Phases != nil {
		ph := last.Phases
		e.Family("rum_queue_wait_seconds", "histogram", "Per-op mailbox queue wait (enqueue to execution start) in seconds.")
		e.HistoScaled("rum_queue_wait_seconds", nil, ph.Queue, 1e-9, nil)
		e.Family("rum_service_seconds", "histogram", "Per-op service time (execution only) in seconds; bucket exemplars carry the worst recent op.")
		e.HistoScaled("rum_service_seconds", nil, ph.Service, 1e-9, ph.Exemplars)
		e.Family("rum_batch_size", "histogram", "Operations carried per mailbox message.")
		e.Histo("rum_batch_size", nil, ph.Batch)
	}
	e.Family("rum_mailbox_depth", "gauge", "Mailbox occupancy in messages, per shard.")
	for i, depth := range d.srv.MailboxDepths() {
		e.Uint("rum_mailbox_depth", obs.L("shard", fmt.Sprintf("%d", i)), uint64(depth))
	}

	e.Family("rum_outcome_mismatches_total", "counter", "Live outcomes that diverged from their generation-time prediction.")
	e.Uint("rum_outcome_mismatches_total", nil, d.mismatches.Load())

	e.Family("rum_live_pages_total", "counter", "Device page operations across all shards, by direction.")
	e.Uint("rum_live_pages_total", obs.L("dir", "read"), d.hook.reads.Load())
	e.Uint("rum_live_pages_total", obs.L("dir", "write"), d.hook.writes.Load())

	e.Family("rum_fault_events_total", "counter", "Fault-path events across all shards: injected faults, torn writes, crash points, retry attempts.")
	e.Uint("rum_fault_events_total", obs.L("event", "fault"), d.hook.faults.Load())
	e.Uint("rum_fault_events_total", obs.L("event", "torn"), d.hook.torn.Load())
	e.Uint("rum_fault_events_total", obs.L("event", "crash"), d.hook.crashes.Load())
	e.Uint("rum_fault_events_total", obs.L("event", "retry"), d.hook.retries.Load())

	// Batch families only exist on a multi-queue medium: the default (flat)
	// scrape stays byte-identical to builds without batched I/O.
	if d.cfg.medium.Model().Channels > 1 {
		e.Family("rum_live_batch_submissions_total", "counter", "Amortized batch submissions across all shards.")
		e.Uint("rum_live_batch_submissions_total", nil, d.hook.batches.Load())
		e.Family("rum_live_batched_pages_total", "counter", "Pages carried by amortized batch submissions across all shards.")
		e.Uint("rum_live_batched_pages_total", nil, d.hook.batchedPages.Load())
	}
}

// collectWorkloadMetrics renders the rum_workload_* families from the
// newest merged fingerprint snapshot. Mix/skew/working-set gauges describe
// the last completed window; ops and drift-event counters are cumulative.
func (d *daemon) collectWorkloadMetrics(e *obs.Encoder, w *obs.WorkloadSnapshot) {
	e.Family("rum_workload_windows_total", "counter", "Completed fingerprint windows across all shards.")
	e.Uint("rum_workload_windows_total", nil, w.Windows)
	e.Family("rum_workload_window_ops", "gauge", "Configured ops per fingerprint window (per shard).")
	e.Uint("rum_workload_window_ops", nil, w.WindowOps)
	e.Family("rum_workload_ops_total", "counter", "Fingerprinted operations by kind, cumulative.")
	for op := obs.WorkloadOp(0); op < obs.NumWorkloadOps; op++ {
		e.Uint("rum_workload_ops_total", obs.L("op", op.String()), w.Cum[op])
	}
	if last := w.Last; last != nil {
		st := last.Stats()
		e.Family("rum_workload_mix", "gauge", "Operation-mix fraction of the last completed fingerprint window.")
		for op := obs.WorkloadOp(0); op < obs.NumWorkloadOps; op++ {
			e.Float("rum_workload_mix", obs.L("op", op.String()), last.MixFrac(op))
		}
		e.Family("rum_workload_hot_share", "gauge", "Fraction of last-window keyed ops on the heavy-hitter set.")
		e.Float("rum_workload_hot_share", nil, st.HotShare)
		e.Family("rum_workload_zipf_slope", "gauge", "Estimated key-skew exponent of the last window's heavy hitters.")
		e.Float("rum_workload_zipf_slope", nil, st.ZipfSlope)
		e.Family("rum_workload_distinct_keys", "gauge", "Estimated working-set cardinality of the last window.")
		e.Float("rum_workload_distinct_keys", nil, st.Distinct)
		e.Family("rum_workload_hot_key_ops", "gauge", "Estimated op count of the last window's heavy hitters (exemplar keys).")
		for rank, h := range last.Hot {
			e.Uint("rum_workload_hot_key_ops",
				obs.L("rank", fmt.Sprintf("%d", rank), "key", fmt.Sprintf("%d", h.Key)), h.Count)
		}
	}
	if w.CumScanRows != nil {
		e.Family("rum_workload_scan_rows", "histogram", "Rows returned per range scan, cumulative.")
		e.Histo("rum_workload_scan_rows", nil, w.CumScanRows)
	}
	e.Family("rum_workload_drift_score", "gauge", "Distance between the two newest fingerprint windows (max across shards).")
	e.Float("rum_workload_drift_score", nil, w.Drift)
	e.Family("rum_workload_drift_events_total", "counter", "Workload drift events latched across all shards.")
	e.Uint("rum_workload_drift_events_total", nil, w.DriftCount)
	if adv, ok := d.advise(w); ok {
		e.Family("rum_workload_advice_delta", "gauge", "Predicted per-op page-access saving of moving to the advisor's pick (0 = best placed).")
		e.Float("rum_workload_advice_delta", nil, adv.Delta)
		e.Family("rum_workload_advice", "gauge", "Advisor verdict for the last window: current and advised configuration as labels.")
		e.Uint("rum_workload_advice", obs.L("current", adv.Current.Config, "advised", adv.Best.Config), 1)
	}
}

// advise prices the newest merged fingerprint against the catalog. The
// dataset size comes from the newest snapshot's record total.
func (d *daemon) advise(w *obs.WorkloadSnapshot) (obs.Advice, bool) {
	if w == nil || w.Last == nil {
		return obs.Advice{}, false
	}
	records := 0
	if last := d.ring.Last(); last != nil {
		_, _, _, records = last.Totals()
	}
	return obs.Advise(w.Last, float64(records), d.cfg.method), true
}

// debugRUM is the /debug/rum JSON document.
type debugRUM struct {
	Config struct {
		Method  string  `json:"method"`
		Shards  int     `json:"shards"`
		Clients int     `json:"clients"`
		Batch   int     `json:"batch"`
		Rate    float64 `json:"rate"`
		Mix     string  `json:"mix"`
		Seed    int64   `json:"seed"`
		Preload int     `json:"preload"`
	} `json:"config"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	Mismatches    uint64  `json:"mismatches"`
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

// handleDebugRUM renders the live JSON snapshot.
func (d *daemon) handleDebugRUM(w http.ResponseWriter, _ *http.Request) {
	var doc debugRUM
	doc.Config.Method = d.cfg.method
	doc.Config.Shards = d.cfg.shards
	doc.Config.Clients = d.cfg.clients
	doc.Config.Batch = d.cfg.batch
	doc.Config.Rate = d.cfg.rate
	doc.Config.Mix = d.cfg.mix.String()
	doc.Config.Seed = d.cfg.seed
	doc.Config.Preload = d.preload
	doc.UptimeSeconds = time.Since(d.start).Seconds()
	doc.Mismatches = d.mismatches.Load()
	doc.WindowSeconds = d.cfg.window.Seconds()
	if last := d.ring.Last(); last != nil {
		m, sz, ops, records := last.Totals()
		doc.Requests = ops
		doc.Cumulative.RO = jsonSafe(m.ReadAmplification())
		doc.Cumulative.UO = jsonSafe(m.WriteAmplification())
		doc.Cumulative.MO = jsonSafe(sz.SpaceAmplification())
		doc.Cumulative.Records = records
		doc.At = last.At
		doc.Shards = last.Shards
	}
	if st, ok := d.ring.Window(d.cfg.window); ok {
		st.RO, st.UO, st.MO = jsonSafe(st.RO), jsonSafe(st.UO), jsonSafe(st.MO)
		doc.Window = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// jsonSafe clamps +Inf (legal in our amplification algebra, illegal in
// JSON) to a large sentinel.
func jsonSafe(v float64) float64 {
	if v > 1e308 || v != v {
		return -1
	}
	return v
}

// handleDebugWorkload renders the fingerprinter's view: the merged
// snapshot (last window, retained history, drift events) plus the advisor's
// full ranking for the newest window. Lock-free — everything derives from
// the sampler's ring.
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
		if fp := last.Workload.Last; fp != nil {
			st := fp.Stats()
			doc.Last = &st
		}
		if adv, ok := d.advise(last.Workload); ok {
			doc.Advice = &adv
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleDebugSlow renders the flight recorder: the slowest recent requests,
// slowest first, each with its queue/service/device decomposition. The read
// is lock-free, so an aggressive poller never blocks a shard.
func (d *daemon) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	traces := d.srv.SlowTraces()
	if traces == nil {
		traces = []obs.SlowTrace{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
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
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// stop drains the drivers, stops the server, and assembles the final
// report — the daemon's equivalent of the serve experiment's result row.
func (d *daemon) stop() (bench.ServeResult, error) {
	if d.stopped {
		return bench.ServeResult{}, serve.ErrStopped
	}
	d.stopped = true
	close(d.stopCh)
	d.wg.Wait()
	elapsed := time.Since(d.start)
	flushErr := d.srv.Flush()
	reports, err := d.srv.Stop()
	if err == nil {
		err = flushErr
	}
	meter, size, n := serve.Aggregate(reports)
	d.finalWorkload = serve.AggregateWorkload(reports)

	latency := obs.NewLatencyHistogram()
	for _, l := range d.lats {
		latency.Merge(l.h) // drivers are joined; direct reads are safe
	}
	wantLen := 0
	for _, g := range d.gens {
		wantLen += g.Live()
	}
	row := bench.ServeRow{
		Method:     d.cfg.method,
		Clean:      rum.PointOf(meter, size),
		Requests:   int(d.submitted.Load()),
		Hits:       int(d.hits.Load()),
		FinalLen:   wantLen,
		Mismatches: int(d.mismatches.Load()),
		Elapsed:    elapsed,
		P50:        latency.QuantileDuration(0.50),
		P99:        latency.QuantileDuration(0.99),
		ServeMeter: meter,
	}
	if ph := serve.AggregatePhases(reports); ph != nil {
		row.QueueP50 = ph.Queue.QuantileDuration(0.50)
		row.QueueP99 = ph.Queue.QuantileDuration(0.99)
		row.ServiceP50 = ph.Service.QuantileDuration(0.50)
		row.ServiceP99 = ph.Service.QuantileDuration(0.99)
	}
	if err != nil {
		row.ServeErr = err.Error()
	}
	row.Verified = row.Mismatches == 0 && row.ServeErr == "" && d.doErrs.Load() == 0 && n == wantLen
	if s := elapsed.Seconds(); s > 0 {
		row.Throughput = float64(row.Requests) / s
	}
	for _, r := range reports {
		row.ShardOps = append(row.ShardOps, r.Ops)
	}
	res := bench.ServeResult{
		N:       d.preload,
		Ops:     row.Requests,
		Clients: d.cfg.clients,
		Shards:  d.cfg.shards,
		Batch:   d.cfg.batch,
		Rows:    []bench.ServeRow{row},
	}
	return res, err
}

// run is the whole program behind main: parse flags, start the daemon,
// serve HTTP until a signal (or until ready is closed in tests), then shut
// down and print the final report. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer, testSignal <-chan struct{}) int {
	fs := flag.NewFlagSet("rumserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var faultSpec string
	fs.StringVar(&cfg.method, "method", "btree", "access method to serve (any catalog name: btree, hash, lsm-level, skiplist, ...)")
	fs.IntVar(&cfg.shards, "shards", 4, "keyspace shard count")
	fs.IntVar(&cfg.clients, "clients", 4, "concurrent driver clients")
	fs.IntVar(&cfg.batch, "batch", 64, "requests per client batch")
	fs.IntVar(&cfg.n, "n", 16384, "records to preload")
	fs.IntVar(&cfg.pool, "pool", 8, "buffer pool pages per shard")
	fs.StringVar(&cfg.mediumSpec, "medium", "ram", "storage medium per shard: ram, ssd, hdd, smr, or mqssd (multi-queue: shard pools submit batched I/O)")
	fs.Float64Var(&cfg.rate, "rate", 0, "target requests/second across all clients (0 = unthrottled)")
	fs.StringVar(&cfg.mixSpec, "mix", "", "operation mix, e.g. get=0.5,insert=0.2,update=0.15,delete=0.15,getmiss=0.1 (empty = serve experiment default)")
	fs.Int64Var(&cfg.seed, "seed", 1, "deterministic workload seed")
	fs.StringVar(&faultSpec, "faults", "", "fault plan, e.g. seed=7,p_read=0.01 (empty = no injected faults)")
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
	fs.DurationVar(&cfg.window, "window", 10*time.Second, "rolling window for the _window gauges")
	fs.DurationVar(&cfg.scrape, "scrape", time.Second, "interval between shard snapshots")
	fs.BoolVar(&cfg.mvcc, "mvcc", false, "serve pure-read batches from MVCC snapshots, bypassing the shard mailbox (btree and lsm methods)")
	fs.IntVar(&cfg.staleness, "staleness", 1, "with -mvcc: writes between snapshot publishes (1 = read-your-writes)")
	fs.BoolVar(&cfg.wal, "wal", false, "write-ahead log every mutation (btree and lsm methods); upgrades durability to commit, /metrics gains rum_wal_*")
	fs.IntVar(&cfg.commitBatch, "commit-batch", 64, "with -wal: records per group commit; shards also commit at the end of every mailbox batch")
	fs.BoolVar(&cfg.workload, "workload", false, "fingerprint the op stream per shard; /metrics gains rum_workload_*, /debug/workload reports the advisor")
	fs.IntVar(&cfg.workloadWindow, "workload-window", 4096, "with -workload: ops per fingerprint window")
	fs.StringVar(&cfg.distSpec, "dist", "", "key-popularity distribution of the driver streams: uniform, zipf:THETA, hotspot:HOT/KEYS (empty = uniform)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// Per-flag validation: each bad value names its flag and prints the full
	// usage, so a typo'd unit (`-window 10` meaning 10ns) fails loudly
	// instead of silently misbehaving.
	badFlag := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rumserve: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return badFlag("unexpected arguments: %v", fs.Args())
	}
	var err error
	if cfg.mix, err = bench.ParseServeMix(cfg.mixSpec); err != nil {
		return badFlag("-mix: %v", err)
	}
	if cfg.plan, err = faults.ParsePlan(faultSpec); err != nil {
		return badFlag("-faults: %v", err)
	}
	if cfg.medium, err = storage.ParseMedium(cfg.mediumSpec); err != nil {
		return badFlag("-medium: %v", err)
	}
	if cfg.dist, err = bench.ParseKeyDist(cfg.distSpec); err != nil {
		return badFlag("-dist: %v", err)
	}
	if cfg.mix.Scan > 0 {
		return badFlag("-mix: scans are not driven by the live daemon (use `rumbench -exp drift` for the scan-storm scenario)")
	}
	switch {
	case cfg.shards < 1:
		return badFlag("-shards must be ≥ 1 (got %d)", cfg.shards)
	case cfg.clients < 1:
		return badFlag("-clients must be ≥ 1 (got %d)", cfg.clients)
	case cfg.batch < 1:
		return badFlag("-batch must be ≥ 1 (got %d)", cfg.batch)
	case cfg.n < cfg.clients:
		return badFlag("-n must be ≥ -clients (got n=%d, clients=%d)", cfg.n, cfg.clients)
	case cfg.rate < 0:
		return badFlag("-rate must be ≥ 0, 0 meaning unthrottled (got %g)", cfg.rate)
	case cfg.window <= 0:
		return badFlag("-window must be a positive duration (got %v)", cfg.window)
	case cfg.scrape <= 0:
		return badFlag("-scrape must be a positive duration (got %v)", cfg.scrape)
	case cfg.staleness < 1:
		return badFlag("-staleness must be ≥ 1 (got %d)", cfg.staleness)
	case cfg.commitBatch < 1:
		return badFlag("-commit-batch must be ≥ 1 (got %d)", cfg.commitBatch)
	case cfg.workloadWindow < 1:
		return badFlag("-workload-window must be ≥ 1 (got %d)", cfg.workloadWindow)
	case cfg.wal && cfg.mvcc:
		return badFlag("-wal and -mvcc are mutually exclusive: the log owns the checkpoint machinery the snapshot read path would share")
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
	fmt.Fprintf(stderr, "rumserve: serving %s across %d shards, %d clients, mix %s\n",
		cfg.method, cfg.shards, cfg.clients, cfg.mix)
	if cfg.mvcc {
		fmt.Fprintf(stderr, "rumserve: mvcc snapshot reads on (staleness %d writes, retention %d versions)\n",
			cfg.staleness, mvccRetention)
	}
	if cfg.wal {
		fmt.Fprintf(stderr, "rumserve: write-ahead logging on (commit batch %d, durable to commit)\n",
			cfg.commitBatch)
	}
	if m := cfg.medium.Model(); m.Channels > 1 {
		fmt.Fprintf(stderr, "rumserve: multi-queue medium %s (read %d, write %d, %d channels; shard pools batch I/O)\n",
			cfg.medium, m.ReadCost, m.WriteCost, m.Channels)
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
	// Fingerprint + advisor lines of the final report: what the traffic
	// looked like and where the paper's cost model says it would be cheaper.
	if w := d.finalWorkload; w != nil {
		fmt.Fprintf(stdout, "workload: %d window(s) of %d ops, %d drift event(s) latched\n",
			w.Windows, w.WindowOps, w.DriftCount)
		if fp := w.Last; fp != nil {
			st := fp.Stats()
			fmt.Fprintf(stdout, "workload: last window mix g/i/u/d/s %.2f/%.2f/%.2f/%.2f/%.2f, hot share %.2f, zipf %.2f, ~%.0f distinct keys\n",
				st.Get, st.Insert, st.Update, st.Delete, st.Scan, st.HotShare, st.ZipfSlope, st.Distinct)
		}
		if adv, ok := d.advise(w); ok {
			fmt.Fprintf(stdout, "%s\n", adv)
		}
	}
	fmt.Fprint(stderr, res.RenderTiming())
	// The flight recorder outlives Stop; dump the worst offenders so a
	// Ctrl-C'd run leaves its slowest requests on record.
	if traces := d.srv.SlowTraces(); len(traces) > 0 {
		n := len(traces)
		if n > 5 {
			n = 5
		}
		fmt.Fprintf(stderr, "(slowest %d of %d retained traces)\n", n, len(traces))
		for _, tr := range traces[:n] {
			fmt.Fprintf(stderr, "(  %-6s key=%-20d shard=%d total=%-10v queue=%-10v service=%-10v pages=%d faults=%d)\n",
				tr.Op, tr.Key, tr.Shard, tr.Total.Round(time.Microsecond),
				tr.Queue.Round(time.Microsecond), tr.Service.Round(time.Microsecond),
				tr.Pages, tr.Faults)
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
