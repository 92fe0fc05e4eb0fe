package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
)

// This file is the one live serving run of the repository: a method sharded
// behind serve.Server, preloaded from its clients' streams, and driven by one
// verified closed-loop client per stream. The serve, mvcc and drift
// experiments run it until their bounded streams run dry; cmd/rumserve runs
// it over open-ended ones, samples it into a telemetry ring while it serves,
// and stops it on a signal.

// LiveConfig sizes a live serving run.
type LiveConfig struct {
	// Method is the catalog name of the structure every shard serves.
	Method string
	// Storage is every shard's storage stack: medium, pool size, MVCC
	// retention (Versions), write-ahead logging (WAL, CommitBatch). Its Hook
	// is replaced per shard by the shard's phase recorder — the shard's
	// private storage-event ledger, and per-op page/fault/retry attribution
	// for traces — and an active Faults plan is salted per shard.
	Storage methods.Options
	// Shards is the keyspace partition count; Batch the requests per client
	// Do call and the server's mailbox-message cap.
	Shards, Batch int
	// Staleness, when positive, serves pure-read batches off MVCC snapshots
	// republished every Staleness writes; zero keeps reads in the mailbox.
	Staleness int
	// Workload turns on per-shard workload fingerprinting (nil = off).
	Workload *serve.WorkloadConfig
	// Trace sizes the flight recorder; lifecycle tracing itself is always on
	// (wall-clock-only state, private to each shard).
	Trace serve.TraceConfig
}

// Stream is one client's generator — StreamGen, StableReadGen, or a wrapper
// that bounds or re-phases one — and the run's only source of the client's
// preload and of its expected final record count. InitRecords draws the
// preload. Fill fills reqs with the client's next point requests and want
// with their exact expected outcomes, returning how many it filled and, when
// barrier.Scan is set, a range scan to run once they have executed, with its
// exact expected row count; returning neither ends the client. Live is the
// number of records the client leaves live. A live run calls Fill from the
// client's goroutine only, and Live once the client has exited.
type Stream interface {
	InitRecords(n int) []core.Record
	Fill(reqs []serve.Request, want []serve.Result) (n int, barrier StreamOp)
	Live() int
}

// initRecords draws perClient records from every stream and merges them, sorted
// by key as BulkLoad and Server.Preload require.
func initRecords(streams []Stream, perClient int) []core.Record {
	var init []core.Record
	for _, s := range streams {
		init = append(init, s.InitRecords(perClient)...)
	}
	return MergeRecords(init)
}

// liveClient is one driver's tallies. The latency histogram is mutex-guarded
// so Sample can read it mid-run (one lock per batch, one per sample) and the
// mismatch count is atomic so a scrape can; the rest is read after the join.
type liveClient struct {
	mu         sync.Mutex
	latency    *obs.Histogram
	mismatches atomic.Uint64
	requests   int // requests a successful Do carried, and scans
	writes     int // of those, requests that account a logical write
	hits       int // gets predicted to hit, confirmed
}

// LiveRun is a running serve.Server with its clients.
type LiveRun struct {
	// Server is the running server, for what a sample does not carry (the
	// flight recorder); Preloaded the records bulk-loaded before the clients.
	Server    *serve.Server
	Preloaded int

	cfg     LiveConfig
	streams []Stream // the clients' until Wait returns
	clients []*liveClient
	wg      sync.WaitGroup
	begin   time.Time
}

// StartLive builds the sharded server, preloads perClient records drawn from
// each stream, and starts one verified closed-loop client per stream. Each
// client submits its stream's batches and scans back to back — or, with a
// positive rate, paced so the clients together submit rate requests per
// second — until the stream runs dry or stop closes (a nil stop never does).
func StartLive(cfg LiveConfig, streams []Stream, perClient int, rate float64, stop <-chan struct{}) (*LiveRun, error) {
	if _, err := methods.Lookup(cfg.Storage, cfg.Method); err != nil {
		return nil, err
	}
	// recs[i] is written by the Recorder callback on shard i's goroutine just
	// before Build reads it back on the same goroutine: disjoint slots.
	recs := make([]*obs.PhaseRecorder, cfg.Shards)
	trace := cfg.Trace
	trace.Recorder = func(i int) *obs.PhaseRecorder {
		recs[i] = obs.NewPhaseRecorder()
		return recs[i]
	}
	srv, err := serve.New(serve.Config{
		Shards:       cfg.Shards,
		MaxBatch:     cfg.Batch,
		Snapshots:    cfg.Staleness > 0,
		StalenessOps: cfg.Staleness,
		Workload:     cfg.Workload,
		Trace:        &trace,
		Build: func(i int) *core.Instrumented {
			o := cfg.Storage
			o.Hook = recs[i]
			if o.Faults.Active() {
				o.Faults = o.Faults.Salted(fmt.Sprintf("rumserve-shard-%d", i))
			}
			spec, err := methods.Lookup(o, cfg.Method)
			if err != nil {
				panic(err)
			}
			return spec.New()
		},
	})
	if err != nil {
		return nil, err
	}
	init := initRecords(streams, perClient)
	err = srv.Preload(init)
	if err == nil && cfg.Staleness > 0 {
		// Flush publishes. A bulk load counts toward the publish cadence like
		// any other write, so a shard whose share of init is under Staleness
		// records would otherwise serve its first reads off the empty snapshot.
		err = srv.Flush()
	}
	if err != nil {
		srv.Stop()
		return nil, err
	}
	var pace time.Duration // between one client's requests; 0 = unthrottled
	if rate > 0 {
		pace = time.Duration(float64(len(streams)) / rate * float64(time.Second))
	}
	r := &LiveRun{Server: srv, Preloaded: len(init), cfg: cfg, streams: streams, begin: time.Now()}
	for _, s := range streams {
		c := &liveClient{latency: obs.NewLatencyHistogram()}
		r.clients = append(r.clients, c)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.drive(c, s, pace, stop)
		}()
	}
	return r, nil
}

// drive is the one verified client loop: pull a batch, submit it, compare
// every outcome against its generation-time prediction, run the scan the
// batch was cut at and compare its row count, pace.
func (r *LiveRun) drive(c *liveClient, s Stream, pace time.Duration, stop <-chan struct{}) {
	reqs := make([]serve.Request, r.cfg.Batch)
	want := make([]serve.Result, r.cfg.Batch)
	res := make([]serve.Result, r.cfg.Batch)
	record := func(t0 time.Time) {
		d := time.Since(t0)
		c.mu.Lock()
		c.latency.RecordDuration(d)
		c.mu.Unlock()
	}
	due := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		n, scan := s.Fill(reqs, want)
		if n == 0 && !scan.Scan {
			return
		}
		ops := n // what this pull submits, for the pacer
		if n > 0 {
			t0 := time.Now()
			if err := r.Server.Do(reqs[:n], res[:n]); err != nil {
				c.mismatches.Add(uint64(n)) // a failed Do verifies nothing it carried
				return
			}
			record(t0)
			c.requests += n
			for i := 0; i < n; i++ {
				if reqs[i].Op != serve.OpGet {
					c.writes++
				}
				if res[i] != want[i] {
					c.mismatches.Add(1)
				} else if reqs[i].Op == serve.OpGet && want[i].OK {
					c.hits++
				}
			}
		}
		if scan.Scan {
			// Do has returned, so everything generated before the scan has
			// executed: its row count is the model's.
			t0 := time.Now()
			rows := r.Server.RangeScan(scan.Lo, scan.Hi, func(core.Key, core.Value) bool { return true })
			record(t0)
			c.requests++
			ops++
			if rows != scan.WantRows {
				c.mismatches.Add(1)
			}
		}
		if pace > 0 {
			due = due.Add(time.Duration(ops) * pace)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			} else if wait < -time.Second {
				due = time.Now() // fell behind by over a second: don't burst
			}
		}
	}
}

// Wait blocks until every client has exited (stream dry or stop closed);
// after it the streams' state is the caller's to read again.
func (r *LiveRun) Wait() { r.wg.Wait() }

// Mismatches returns the outcomes that have diverged from their prediction
// so far. Safe from any goroutine.
func (r *LiveRun) Mismatches() uint64 {
	var n uint64
	for _, c := range r.clients {
		n += c.mismatches.Load()
	}
	return n
}

// Sample takes a non-destructive snapshot of the run — every shard's ledger,
// answered on its own goroutine between batches, plus the clients' merged
// latency — as one point for an obs.Rolling ring: nil once the server has
// stopped, while a dead shard still yields the live shards' state.
func (r *LiveRun) Sample() *obs.WindowPoint {
	reports, _ := r.Server.Snapshot() // the error names a dead shard; its report still carries it
	if reports == nil {
		return nil
	}
	return r.point(reports)
}

// point assembles shard reports and the clients' cumulative latency into a
// WindowPoint stamped now.
func (r *LiveRun) point(reports []serve.ShardReport) *obs.WindowPoint {
	latency := obs.NewLatencyHistogram()
	for _, c := range r.clients {
		c.mu.Lock()
		latency.Merge(c.latency)
		c.mu.Unlock()
	}
	readers, snapReads := r.Server.ReaderStats()
	p := &obs.WindowPoint{
		At:           time.Now(),
		Latency:      latency,
		Phases:       serve.AggregatePhases(reports),
		Workload:     serve.AggregateWorkload(reports),
		Readers:      int(readers),
		SnapReads:    snapReads,
		MailboxDepth: r.Server.MailboxDepths(),
	}
	for _, rep := range reports {
		p.Shards = append(p.Shards, rep.ShardPoint)
	}
	return p
}

// Stop waits for the clients (callers with a stop channel close it first),
// flushes and stops the server, and reduces the run to its ServeRow and the
// final point the row was read from. The row is Verified when every outcome
// matched its prediction, the server ran clean, the shards hold exactly the
// records the streams' models leave live (FinalLen), and the merged shard
// meters conserve the logical write count exactly. Its Clean point is the
// live run's cumulative amplification; a caller with a clean replay
// overwrites it.
func (r *LiveRun) Stop() (ServeRow, *obs.WindowPoint, error) {
	r.Wait()
	wantLen := 0
	for _, s := range r.streams {
		wantLen += s.Live()
	}
	flushErr := r.Server.Flush()
	elapsed := time.Since(r.begin)
	reports, err := r.Server.Stop()
	if err == nil {
		err = flushErr
	}
	final := r.point(reports)
	meter, size, _, n := final.Totals()

	row := ServeRow{
		Method:     r.cfg.Method,
		Clean:      rum.PointOf(meter, size),
		FinalLen:   wantLen,
		Mismatches: int(r.Mismatches()),
		Elapsed:    elapsed,
		P50:        final.Latency.QuantileDuration(0.50),
		P99:        final.Latency.QuantileDuration(0.99),
		ServeMeter: meter,
	}
	writes := r.Preloaded
	for _, c := range r.clients {
		row.Requests += c.requests
		row.Hits += c.hits
		writes += c.writes
	}
	if ph := final.Phases; ph != nil {
		row.QueueP50 = ph.Queue.QuantileDuration(0.50)
		row.QueueP99 = ph.Queue.QuantileDuration(0.99)
		row.ServiceP50 = ph.Service.QuantileDuration(0.50)
		row.ServiceP99 = ph.Service.QuantileDuration(0.99)
	}
	for _, s := range final.Shards {
		row.ShardOps = append(row.ShardOps, s.Ops)
	}
	if err != nil {
		row.ServeErr = err.Error()
	}
	row.Verified = row.Mismatches == 0 && err == nil && n == wantLen &&
		meter.LogicalWritten == uint64(writes)*core.RecordSize
	if s := elapsed.Seconds(); s > 0 {
		row.Throughput = float64(row.Requests) / s
	}
	return row, final, err
}
