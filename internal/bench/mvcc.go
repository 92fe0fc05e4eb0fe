package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rum"
)

// The mvcc experiment measures what snapshot isolation buys and costs under
// the RUM framework: the serving layer's MVCC read path (LiveConfig.
// Staleness) sweeps snapshot lifetime (publish staleness) × read/write mix
// and reports read throughput and tail latency against the single-owner
// baseline, plus the memory-overhead tax of version retention.
//
// Determinism contract, same as the serve experiment: stdout carries only
// facts independent of scheduling — the RUM point of a deterministic
// sequential replay that applies the identical streams against one MVCC
// structure with the same publish cadence (by write count), retained-bytes
// at end of run, request counts, and the live runs' outcome-verification
// verdict. Wall-clock facts (throughput, p99, speedup over the baseline) go
// to stderr via RenderTiming.
//
// The streams are stable-read by construction (StableReadGen): every read
// targets a preloaded namespace nothing writes, every write a namespace
// nothing reads. Outcomes are therefore exact under any staleness, which is
// what lets the relaxed-staleness cells keep the verification contract.

// mvccMethods are the snapshot-capable subjects, by catalog name.
var mvccMethods = []string{"btree", "lsm-level"}

// MVCCConfig sizes the mvcc experiment.
type MVCCConfig struct {
	// ServeConfig sizes the live runs: shards, clients, batch.
	ServeConfig
	// Versions is the retention window of every structure (default 3).
	Versions int
	// Stalenesses are the publish cadences to sweep, in writes between
	// publishes (default {1, 256}: strict read-your-writes vs relaxed).
	Stalenesses []int
	// Mixes are ServeMix preset names to sweep (default {read50, read99}).
	Mixes []string
}

func (c *MVCCConfig) defaults() error {
	c.ServeConfig.defaults()
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
	Verified bool // both live runs verified, reads used snapshots
	// Mismatches counts diverged live outcomes, baseline and snapshot run.
	Mismatches int
	ServeErr   string

	// Wall-clock (stderr).
	BaseThroughput float64 // single-owner baseline, requests/s
	SnapThroughput float64 // MVCC read path, requests/s
	P99            time.Duration
	SnapReads      uint64 // reads served off snapshots, mailbox bypassed
}

// MVCCResult is the rendered mvcc experiment.
type MVCCResult struct {
	N, Ops, Clients int
	Shards, Batch   int
	Versions        int
	Rows            []MVCCRow
}

// mvccCell is one cell's coordinates: everything its two runs are a function of.
type mvccCell struct {
	method, mix string
	k           int
	mcfg        MVCCConfig
}

// streams builds the cell's client generators, each bounded to its share of
// the op budget. Every run of the cell — the replay, the baseline, the
// snapshot run — builds its own from the same seed.
func (c mvccCell) streams(cfg Config) []Stream {
	streams := make([]Stream, c.mcfg.Clients)
	for i := range streams {
		streams[i] = NewStableReadGen(cfg.Seed, i, len(streams), serveMixPresets[c.mix], UniformDist(), cfg.Ops/len(streams))
	}
	return streams
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
	cfg.Storage.Versions = mcfg.Versions

	res := MVCCResult{
		N: cfg.N / mcfg.Clients * mcfg.Clients, Ops: cfg.Ops / mcfg.Clients * mcfg.Clients,
		Clients: mcfg.Clients, Shards: mcfg.Shards, Batch: mcfg.Batch, Versions: mcfg.Versions,
	}
	var rows []MVCCRow
	for _, m := range mvccMethods {
		for _, mix := range mcfg.Mixes {
			for _, k := range mcfg.Stalenesses {
				rows = append(rows, MVCCRow{Method: m, Mix: mix, Staleness: k, Requests: res.Ops})
			}
		}
	}
	// A cell's two runs execute concurrently and write disjoint fields of its row.
	cells := make([]Cell, 0, 2*len(rows))
	for i := range rows {
		row := &rows[i]
		cell := mvccCell{method: row.Method, mix: row.Mix, k: row.Staleness, mcfg: mcfg}
		label := fmt.Sprintf("%s/%s/k=%d", row.Method, row.Mix, row.Staleness)
		cells = append(cells,
			Cell{Label: label + "/clean", Run: func(ccfg Config) {
				row.Clean, row.Reads, row.Retained = replay(ccfg, cell.method, fmt.Sprintf("mvcc:%s/k=%d/clean", cell.method, cell.k),
					cell.streams(ccfg), ccfg.N/mcfg.Clients, cell.k)
			}},
			Cell{Label: label + "/serve", Run: func(ccfg Config) { cell.serve(ccfg, row) }})
	}
	cfg.runCells("mvcc", cells)
	res.Rows = rows
	return res
}

// serve times the live phase twice over identical streams (StartLive):
// single-owner baseline (Staleness 0, reads in the mailbox), then the MVCC
// read path republishing every k writes.
func (c mvccCell) serve(cfg Config, row *MVCCRow) {
	live := func(staleness int) (ServeRow, uint64) {
		run, err := StartLive(LiveConfig{
			Method: c.method, Storage: cfg.Storage, Shards: c.mcfg.Shards, Batch: c.mcfg.Batch, Staleness: staleness,
		}, c.streams(cfg), cfg.N/c.mcfg.Clients, 0, nil)
		if err != nil {
			panic(fmt.Sprintf("mvcc: %s: %v", c.method, err))
		}
		srow, final, _ := run.Stop() // a serving failure is the row's ServeErr
		return srow, final.SnapReads
	}
	base, _ := live(0)
	snap, snapReads := live(c.k)
	row.BaseThroughput, row.SnapThroughput = base.Throughput, snap.Throughput
	row.P99, row.SnapReads = snap.P99, snapReads
	row.Mismatches = base.Mismatches + snap.Mismatches
	row.Verified = base.Verified && snap.Verified && snapReads > 0
	if row.ServeErr = snap.ServeErr; row.ServeErr == "" {
		row.ServeErr = base.ServeErr
	}
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
			row.P99.String(),
			fmt.Sprintf("%d", row.SnapReads),
		})
	}
	b.WriteString(table([]string{"method", "mix", "k", "base req/s", "snap req/s", "speedup", "batch p99", "snap reads"}, rows))
	return b.String()
}
