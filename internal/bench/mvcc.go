package bench

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
)

// The mvcc experiment measures what snapshot isolation buys and costs under
// the RUM framework: the serving layer's MVCC read path (serve.Config.
// Snapshots) sweeps snapshot lifetime (publish staleness) × read/write mix
// and reports read throughput and tail latency against the single-owner
// baseline, plus the memory-overhead tax of version retention.
//
// Determinism contract, same as the serve experiment: stdout carries only
// facts independent of scheduling — the RUM point of a deterministic
// sequential replay that applies the identical streams against one MVCC
// structure with the same publish cadence (by write count), retained-bytes
// at end of run, request counts, and the live run's outcome-verification
// verdict. Wall-clock facts (throughput, p99, speedup over the baseline) go
// to stderr via RenderTiming.
//
// The streams are stable-read by construction: every get targets the
// preloaded, never-mutated stable keyspace (namespace 0), and every write
// targets the client's own namespace. Outcomes are therefore exact under
// any staleness — a snapshot read is stale only with respect to keys the
// readers never ask about — which is what lets the relaxed-staleness cells
// keep the verification contract.

// mvccMethods are the snapshot-capable subjects.
var mvccMethods = []string{"btree", "lsm"}

// MVCCConfig sizes the mvcc experiment.
type MVCCConfig struct {
	// Shards and Clients mirror ServeConfig (defaults 4 and 8).
	Shards  int
	Clients int
	// Batch is the requests per Do call (default 64).
	Batch int
	// Versions is the retention window of every structure (default 3).
	Versions int
	// Stalenesses are the publish cadences to sweep, in writes between
	// publishes (default {1, 256}: strict read-your-writes vs relaxed).
	Stalenesses []int
	// Mixes are ServeMix preset names to sweep (default {read50, read99}).
	Mixes []string
}

func (c *MVCCConfig) defaults() error {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Versions <= 0 {
		c.Versions = 3
	}
	if len(c.Stalenesses) == 0 {
		c.Stalenesses = []int{1, 256}
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []string{"read50", "read99"}
	}
	for _, m := range c.Mixes {
		if _, ok := serveMixPresets[m]; !ok {
			return fmt.Errorf("mvcc: unknown mix preset %q (want %s)", m, strings.Join(ServeMixPresets(), "/"))
		}
	}
	return nil
}

// mvccStreamSalt separates this experiment's PCG streams from every other
// consumer of the seed.
const mvccStreamSalt = 0x3fcc

// mvccStream is one client's pregenerated stream with exact expected
// outcomes (see the stable-read note in the package comment).
type mvccStream struct {
	ops     []serve.Request
	want    []serve.Result
	reads   int
	netLive int // records this client's writes leave live
}

// makeMVCCStable generates the shared stable keyspace: n records in
// namespace 0, preloaded once and never written afterwards.
func makeMVCCStable(seed int64, n int) []core.Record {
	rng := rand.New(rand.NewPCG(uint64(seed), mvccStreamSalt))
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i + 1), Value: core.Value(rng.Uint64())}
	}
	return recs
}

// makeMVCCStream generates client's stream: gets drawn uniformly from the
// stable keyspace (or missing keys in the client's namespace, per GetMiss),
// writes confined to the client's namespace.
func makeMVCCStream(seed int64, client, nOps int, mix ServeMix, stable []core.Record) mvccStream {
	rng := rand.New(rand.NewPCG(uint64(seed), mvccStreamSalt+1+uint64(client)))
	ns := core.Key(client+1) << 44
	var st mvccStream
	st.ops = make([]serve.Request, 0, nOps)
	st.want = make([]serve.Result, 0, nOps)
	// Own-namespace write state.
	var live []core.Key
	model := make(map[core.Key]core.Value)
	nextFresh := uint64(0)
	fresh := func() core.Key { nextFresh++; return ns | core.Key(nextFresh) }
	wIns, wUpd, wDel := mix.Insert, mix.Update, mix.Delete
	if s := wIns + wUpd + wDel; s > 0 {
		wIns, wUpd, wDel = wIns/s, wUpd/s, wDel/s
	}
	for i := 0; i < nOps; i++ {
		if rng.Float64() < mix.Get {
			st.reads++
			if rng.Float64() < mix.GetMiss {
				// A key in the client's namespace above anything inserted:
				// a guaranteed miss under any staleness.
				st.ops = append(st.ops, serve.Request{Op: serve.OpGet, Key: ns | core.Key(1)<<43})
				st.want = append(st.want, serve.Result{})
				continue
			}
			r := stable[rng.IntN(len(stable))]
			st.ops = append(st.ops, serve.Request{Op: serve.OpGet, Key: r.Key})
			st.want = append(st.want, serve.Result{Value: r.Value, OK: true})
			continue
		}
		r := rng.Float64()
		switch {
		case r < wIns || len(live) == 0:
			k, v := fresh(), core.Value(rng.Uint64())
			model[k] = v
			live = append(live, k)
			st.ops = append(st.ops, serve.Request{Op: serve.OpInsert, Key: k, Value: v})
			st.want = append(st.want, serve.Result{OK: true})
		case r < wIns+wUpd:
			k, v := live[rng.IntN(len(live))], core.Value(rng.Uint64())
			model[k] = v
			st.ops = append(st.ops, serve.Request{Op: serve.OpUpdate, Key: k, Value: v})
			st.want = append(st.want, serve.Result{OK: true})
		default:
			i := rng.IntN(len(live))
			k := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(model, k)
			st.ops = append(st.ops, serve.Request{Op: serve.OpDelete, Key: k})
			st.want = append(st.want, serve.Result{OK: true})
		}
	}
	st.netLive = len(model)
	return st
}

// buildMVCC constructs a snapshot-capable subject with the given retention.
func buildMVCC(opt methods.Options, name string, versions int) *core.Instrumented {
	switch name {
	case "btree":
		return methods.NewBTree(opt, btree.Config{Versions: versions})
	case "lsm":
		return methods.NewLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 10, BloomBitsPerKey: 10, Versions: versions})
	default:
		panic(fmt.Sprintf("mvcc: unknown method %q", name))
	}
}

// MVCCRow is one (method, mix, staleness) cell's measurements.
type MVCCRow struct {
	Method    string
	Mix       string
	Staleness int

	// Deterministic (stdout).
	Clean    rum.Point // sequential replay with the same publish cadence
	Retained uint64    // version-retention bytes at end of replay (the MO tax)
	Requests int
	Reads    int
	Verified bool // live outcomes matched predictions, reads used snapshots
	// Mismatches counts diverged live outcomes, baseline and snapshot run.
	Mismatches int
	ServeErr   string

	// Wall-clock (stderr).
	BaseThroughput float64 // single-owner baseline, requests/s
	SnapThroughput float64 // MVCC read path, requests/s
	ReadP99        time.Duration
	SnapReads      uint64 // reads served off snapshots, mailbox bypassed
}

// MVCCResult is the rendered mvcc experiment.
type MVCCResult struct {
	N, Ops, Clients int
	Shards, Batch   int
	Versions        int
	Rows            []MVCCRow
}

// RunMVCC profiles the MVCC read path across snapshot lifetime × read/write
// mix: a deterministic sequential replay per cell for the clean RUM point,
// then two live runs — single-owner baseline and snapshot-serving — for the
// wall-clock comparison.
func RunMVCC(cfg Config, mcfg MVCCConfig) MVCCResult {
	cfg.Defaults()
	if err := mcfg.defaults(); err != nil {
		panic(err.Error())
	}
	cfg.smallPool()
	stable := makeMVCCStable(cfg.Seed, cfg.N)

	res := MVCCResult{
		N: len(stable), Clients: mcfg.Clients,
		Shards: mcfg.Shards, Batch: mcfg.Batch, Versions: mcfg.Versions,
	}
	type cellKey struct {
		method string
		mix    string
		k      int
	}
	var keys []cellKey
	for _, m := range mvccMethods {
		for _, mix := range mcfg.Mixes {
			for _, k := range mcfg.Stalenesses {
				keys = append(keys, cellKey{m, mix, k})
			}
		}
	}
	rows := make([]MVCCRow, len(keys))
	cells := make([]Cell, 0, 2*len(keys))
	for i, key := range keys {
		i, key := i, key
		streams := make([]mvccStream, mcfg.Clients)
		for c := range streams {
			streams[c] = makeMVCCStream(cfg.Seed, c, cfg.Ops/mcfg.Clients, serveMixPresets[key.mix], stable)
		}
		for _, st := range streams {
			rows[i].Requests += len(st.ops)
			rows[i].Reads += st.reads
		}
		res.Ops = rows[i].Requests
		label := fmt.Sprintf("%s/%s/k=%d", key.method, key.mix, key.k)
		cells = append(cells, Cell{
			Label: label + "/clean",
			Run: func(ccfg Config) {
				runMVCCClean(ccfg, key.method, key.k, mcfg.Versions, streams, stable, &rows[i])
			},
		})
		cells = append(cells, Cell{
			Label: label + "/serve",
			Run: func(ccfg Config) {
				runMVCCServing(ccfg, mcfg, key.method, key.k, streams, stable, &rows[i])
			},
		})
		rows[i].Method = key.method
		rows[i].Mix = key.mix
		rows[i].Staleness = key.k
	}
	cfg.runCells("mvcc", cells)
	res.Rows = rows
	return res
}

// runMVCCClean is the deterministic replay: one structure, clients applied
// sequentially, reads through an acquired snapshot, republished every k
// writes — the same cadence the serving layer uses, counted in writes
// instead of messages so it cannot depend on batching or scheduling.
func runMVCCClean(cfg Config, name string, k, versions int, streams []mvccStream, stable []core.Record, row *MVCCRow) {
	am := buildMVCC(cfg.Storage, name, versions)
	cfg.observe(am, fmt.Sprintf("mvcc:%s/k=%d/clean", name, k))
	if err := am.BulkLoad(stable); err != nil {
		panic(fmt.Sprintf("mvcc: %s: preload: %v", name, err))
	}
	am.Flush()
	if err := am.Publish(); err != nil {
		panic(fmt.Sprintf("mvcc: %s: publish: %v", name, err))
	}
	start := am.Meter().Snapshot()
	var readMeter rum.Meter
	snap := am.Acquire()
	writesSince := 0
	wantLive := len(stable)
	for _, st := range streams {
		wantLive += st.netLive
		for i := range st.ops {
			req, want := st.ops[i], st.want[i]
			var got serve.Result
			if req.Op == serve.OpGet {
				got.Value, got.OK = snap.Get(req.Key, &readMeter)
			} else {
				got = serve.Exec(am, req)
				if writesSince++; writesSince >= k {
					snap.Release()
					if err := am.Publish(); err != nil {
						panic(fmt.Sprintf("mvcc: %s: publish: %v", name, err))
					}
					snap = am.Acquire()
					writesSince = 0
				}
			}
			if got != want {
				panic(fmt.Sprintf("mvcc: %s: clean replay diverged on %+v: got %+v, want %+v", name, req, got, want))
			}
		}
	}
	snap.Release()
	am.Flush()
	total := am.Meter().Diff(start)
	total.Add(readMeter)
	row.Clean = rum.PointOf(total, am.Size())
	row.Retained = am.SnapshotStats().RetainedBytes
	if got := am.Len(); got != wantLive {
		panic(fmt.Sprintf("mvcc: %s: replay left %d records, streams predict %d", name, got, wantLive))
	}
}

// runMVCCServing times the live phase twice over the identical streams:
// single-owner baseline (Snapshots off), then the MVCC read path. Each
// client separates its stream into pure-read and write batches — reads are
// order-independent by construction, so this is outcome-preserving — and
// the read batches are what the bypass accelerates.
func runMVCCServing(cfg Config, mcfg MVCCConfig, name string, k int, streams []mvccStream, stable []core.Record, row *MVCCRow) {
	sopt := cfg.Storage
	sopt.Hook = nil
	base, _, _, baseMism, baseErr := mvccServeOnce(sopt, mcfg, name, k, false, streams, stable)
	snapTp, p99, snapReads, mism, serveErr := mvccServeOnce(sopt, mcfg, name, k, true, streams, stable)
	row.BaseThroughput = base
	row.SnapThroughput = snapTp
	row.ReadP99 = p99
	row.SnapReads = snapReads
	row.Mismatches = mism + baseMism
	row.Verified = row.Mismatches == 0 && serveErr == "" && baseErr == "" && snapReads > 0
	if serveErr == "" {
		serveErr = baseErr
	}
	row.ServeErr = serveErr
}

// mvccServeOnce runs one live configuration and returns (requests/s, read
// p99, snapshot-served reads, outcome mismatches, error).
func mvccServeOnce(opt methods.Options, mcfg MVCCConfig, name string, k int, snapshots bool, streams []mvccStream, stable []core.Record) (float64, time.Duration, uint64, int, string) {
	srv, err := serve.New(serve.Config{
		Shards:       mcfg.Shards,
		MaxBatch:     mcfg.Batch,
		Snapshots:    snapshots,
		StalenessOps: k,
		Build:        func(int) *core.Instrumented { return buildMVCC(opt, name, mcfg.Versions) },
	})
	if err != nil {
		return 0, 0, 0, 0, err.Error()
	}
	if err := srv.Preload(stable); err != nil {
		return 0, 0, 0, 0, err.Error()
	}
	if err := srv.Flush(); err != nil {
		return 0, 0, 0, 0, err.Error()
	}

	type tally struct {
		mismatches int
		hist       *obs.Histogram
	}
	tallies := make([]tally, len(streams))
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &streams[c]
			ta := &tallies[c]
			ta.hist = obs.NewLatencyHistogram()
			res := make([]serve.Result, mcfg.Batch)
			var readIdx, writeIdx []int
			flush := func(idxs []int, read bool) {
				if len(idxs) == 0 {
					return
				}
				reqs := make([]serve.Request, len(idxs))
				for j, i := range idxs {
					reqs[j] = st.ops[i]
				}
				t0 := time.Now()
				if err := srv.Do(reqs, res[:len(reqs)]); err != nil {
					ta.mismatches += len(reqs)
					return
				}
				if read {
					ta.hist.RecordDuration(time.Since(t0))
				}
				for j, i := range idxs {
					if res[j] != st.want[i] {
						ta.mismatches++
					}
				}
			}
			for i := range st.ops {
				if st.ops[i].Op == serve.OpGet {
					readIdx = append(readIdx, i)
					if len(readIdx) == mcfg.Batch {
						flush(readIdx, true)
						readIdx = readIdx[:0]
					}
				} else {
					writeIdx = append(writeIdx, i)
					if len(writeIdx) == mcfg.Batch {
						flush(writeIdx, false)
						writeIdx = writeIdx[:0]
					}
				}
			}
			flush(writeIdx, false)
			flush(readIdx, true)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	_, snapReads := srv.ReaderStats()
	_, err = srv.Stop()
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	mismatches, requests := 0, 0
	hist := obs.NewLatencyHistogram()
	for i := range tallies {
		mismatches += tallies[i].mismatches
		hist.Merge(tallies[i].hist)
	}
	for _, st := range streams {
		requests += len(st.ops)
	}
	tp := 0.0
	if s := elapsed.Seconds(); s > 0 {
		tp = float64(requests) / s
	}
	return tp, hist.QuantileDuration(0.99), snapReads, mismatches, errStr
}

// Render prints the deterministic half of the experiment.
func (r MVCCResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MVCC snapshot reads: single-writer/many-reader shards, lock-free readers\n")
	fmt.Fprintf(&b, "%d stable records, %d requests across %d clients; retention %d versions\n",
		r.N, r.Ops, r.Clients, r.Versions)
	fmt.Fprintf(&b, "k = writes between snapshot publishes (1 = read-your-writes)\n\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		verdict := "ok"
		if !row.Verified {
			verdict = fmt.Sprintf("FAIL(%d mismatches %s)", row.Mismatches, row.ServeErr)
		}
		rows = append(rows, []string{
			row.Method,
			row.Mix,
			fmt.Sprintf("%d", row.Staleness),
			fmt.Sprintf("%.2f", row.Clean.R),
			fmt.Sprintf("%.2f", row.Clean.U),
			fmt.Sprintf("%.3f", row.Clean.M),
			fmt.Sprintf("%d", row.Retained),
			fmt.Sprintf("%d", row.Reads),
			verdict,
		})
	}
	b.WriteString(table([]string{"method", "mix", "k", "RO", "UO", "MO", "retainedB", "reads", "served"}, rows))
	b.WriteString("\nRO/UO/MO come from a deterministic sequential replay with the same publish\ncadence (counted in writes); retainedB is the version-retention footprint at\nend of replay — the MO rent snapshot isolation pays. Laxer k (more writes\nper publish) lowers publish traffic but widens staleness; retention appears\nin MO because Size() counts retired-but-unreclaimed pages. \"served ok\"\nmeans every live outcome matched its stable-read prediction and reads were\nactually served off snapshots. Throughput goes to stderr.\n")
	return b.String()
}

// RenderTiming prints the wall-clock half: baseline vs snapshot-path
// throughput and read tail latency. Non-deterministic; never part of stdout.
func (r MVCCResult) RenderTiming() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mvcc wall-clock (non-deterministic; %d shards, %d clients, batch %d):\n",
		r.Shards, r.Clients, r.Batch)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		speedup := 0.0
		if row.BaseThroughput > 0 {
			speedup = row.SnapThroughput / row.BaseThroughput
		}
		rows = append(rows, []string{
			row.Method,
			row.Mix,
			fmt.Sprintf("%d", row.Staleness),
			fmt.Sprintf("%.0f", row.BaseThroughput),
			fmt.Sprintf("%.0f", row.SnapThroughput),
			fmt.Sprintf("%.2fx", speedup),
			row.ReadP99.String(),
			fmt.Sprintf("%d", row.SnapReads),
		})
	}
	b.WriteString(table([]string{"method", "mix", "k", "base req/s", "snap req/s", "speedup", "read p99", "snap reads"}, rows))
	return b.String()
}
