package bench

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The drift experiment closes the loop between the workload fingerprinter
// and the RUM advisor: one serving instance takes a diurnal, phase-shifting
// stream — write-heavy ingest, then zipf-skewed point serving, then a scan
// storm — and the experiment reports what the fingerprinter saw window by
// window and which catalog configuration the advisor would have moved to.
// The claim under test is the paper's: no single configuration is best
// placed for all three phases, and a mix/skew/working-set fingerprint is
// enough to see the boundary crossings from the op stream alone.
//
// Determinism contract. One client, one shard, one driver goroutine:
// requests execute in submission order, the fingerprint windows rotate on
// op counts, and every probabilistic summary (count-min, top-k, HLL) uses
// fixed hashes — so stdout is byte-identical at any -parallel width, shard
// count, or batch size, and cmd/rumbench's TestParallelDeterminism diffs it.
// Every point outcome and every scan's row count is verified against the
// generator's model.

// DriftPhases is the diurnal schedule: name, mix, and key distribution of
// each phase. Phases run back to back against the same instance and split
// the op budget evenly.
var DriftPhases = []struct {
	Name string
	Mix  ServeMix
	Dist string
}{
	{"ingest", ServeMix{Get: 0.15, Insert: 0.70, Update: 0.10, Delete: 0.05, GetMiss: 0.05}, "uniform"},
	{"serve", ServeMix{Get: 0.90, Insert: 0.05, Update: 0.05, GetMiss: 0.05}, "zipf:1.1"},
	{"scan-storm", ServeMix{Get: 0.50, Insert: 0.05, Update: 0.05, Scan: 0.40, ScanRows: 512, GetMiss: 0.05}, "hotspot:90/10"},
}

// driftMethod is the serving subject the advisor critiques: the catalog's
// default, whose page-granular accesses leave every phase something to say.
const driftMethod = "btree"

// DriftWindowRow is one completed fingerprint window of the run.
type DriftWindowRow struct {
	Window  uint64
	Phase   string // phase the window's ops mostly came from
	Stats   obs.FingerprintStats
	Drift   float64 // distance from the previous window
	Advice  obs.Advice
	Latched bool // a drift event latched at this window
}

// DriftResult is the rendered drift experiment.
type DriftResult struct {
	N, Ops    int
	WindowOps int
	Windows   []DriftWindowRow
	// DriftEvents is the recorder's latched event count; Advised counts the
	// distinct configurations the advisor picked across windows.
	DriftEvents uint64
	Advised     []string
	Verified    bool
	Mismatches  int
}

// RunDrift drives the diurnal schedule through a fingerprinting server and
// maps every completed window through the advisor.
func RunDrift(cfg Config) DriftResult {
	cfg.Defaults()
	var res DriftResult
	cells := []Cell{{
		Label: driftMethod + "/drift",
		Run:   func(ccfg Config) { res = runDrift(ccfg) },
	}}
	cfg.runCells("drift", cells)
	return res
}

func runDrift(cfg Config) DriftResult {
	nInit := cfg.N / 4
	// Four fingerprint windows per phase, aligned exactly: no runt window at
	// the end, and every window's ops come from a single phase — drift events
	// latch at the boundaries, not at partial-window artifacts.
	windowOps := cfg.Ops / 12
	if windowOps < 64 {
		windowOps = 64
	}
	phaseOps := 4 * windowOps
	totalOps := phaseOps * len(DriftPhases)

	cfg.smallPool()

	// The schedule is one phased stream; StartLive's client does the rest,
	// scans as barriers included.
	run, err := StartLive(LiveConfig{
		Method: driftMethod, Storage: cfg.Storage, Shards: 1, Batch: 64,
		Workload: &serve.WorkloadConfig{
			WindowOps: windowOps,
			Keep:      totalOps/windowOps + 2, // retain every window of the run
		},
	}, []Stream{&phased{bounded{NewStreamGen(cfg.Seed, 0, DriftPhases[0].Mix), 0}, -1, phaseOps}}, nInit, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("drift: %v", err))
	}
	live, final, err := run.Stop()
	if err != nil {
		panic(fmt.Sprintf("drift: %v", err))
	}
	w := final.Workload
	if w == nil {
		panic("drift: no workload snapshot")
	}

	// phaseOf maps a window to the phase that contributed most of its ops.
	phaseOf := func(win uint64) string {
		mid := (float64(win) - 0.5) * float64(windowOps)
		i := int(mid / float64(phaseOps))
		if i >= len(DriftPhases) {
			i = len(DriftPhases) - 1
		}
		return DriftPhases[i].Name
	}

	res := DriftResult{
		N: nInit, Ops: totalOps, WindowOps: windowOps,
		DriftEvents: w.DriftCount,
		Verified:    live.Verified,
		Mismatches:  live.Mismatches,
	}
	latched := map[uint64]bool{}
	for _, ev := range w.Events {
		latched[ev.Window] = true
	}
	seen := map[string]bool{}
	var prev obs.FingerprintStats
	for i := range w.Recent {
		fp := &w.Recent[i]
		st := fp.Stats()
		row := DriftWindowRow{
			Window:  fp.Window,
			Phase:   phaseOf(fp.Window),
			Stats:   st,
			Advice:  obs.Advise(fp, cfg.Storage.Model(live.FinalLen), driftMethod),
			Latched: latched[fp.Window],
		}
		if i > 0 {
			row.Drift = obs.DriftScore(prev, st)
		}
		prev = st
		if !seen[row.Advice.Best.Config] {
			seen[row.Advice.Best.Config] = true
			res.Advised = append(res.Advised, row.Advice.Best.Config)
		}
		res.Windows = append(res.Windows, row)
	}
	return res
}

// phased is the diurnal schedule as one client's stream: it switches its
// generator to the next of DriftPhases every phaseOps operations and runs dry
// after the last.
type phased struct {
	bounded
	phase, phaseOps int
}

func (p *phased) Fill(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
	if p.left == 0 {
		if p.phase++; p.phase >= len(DriftPhases) {
			return 0, StreamOp{}
		}
		dist, err := ParseKeyDist(DriftPhases[p.phase].Dist)
		if err != nil {
			panic(fmt.Sprintf("drift: %v", err))
		}
		p.SetPhase(DriftPhases[p.phase].Mix, dist)
		p.left = p.phaseOps
	}
	return p.bounded.Fill(reqs, want)
}

// Render prints the experiment: one row per fingerprint window, the drift
// trail, and the advisor's verdicts. Fully deterministic.
func (r DriftResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload drift & the RUM advisor: %s under a diurnal phase schedule\n", driftMethod)
	fmt.Fprintf(&b, "%d records preloaded, %d ops in %d phases (%s), fingerprint window %d ops\n\n",
		r.N, r.Ops, len(DriftPhases), driftPhaseNames(), r.WindowOps)
	rows := make([][]string, 0, len(r.Windows))
	for _, w := range r.Windows {
		drift := fmt.Sprintf("%.2f", w.Drift)
		if w.Latched {
			drift += "*"
		}
		advice := w.Advice.Best.Config
		if w.Advice.Moved() {
			advice += fmt.Sprintf(" (Δ%.2f/op)", w.Advice.Delta)
		} else {
			advice = "(stay) " + advice
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Window),
			w.Phase,
			fmt.Sprintf("%.2f/%.2f/%.2f/%.2f/%.2f",
				w.Stats.Get, w.Stats.Insert, w.Stats.Update, w.Stats.Delete, w.Stats.Scan),
			fmt.Sprintf("%.2f", w.Stats.HotShare),
			fmt.Sprintf("%.2f", w.Stats.ZipfSlope),
			fmt.Sprintf("%.0f", w.Stats.Distinct),
			fmt.Sprintf("%.0f", w.Stats.ScanP50),
			drift,
			advice,
		})
	}
	b.WriteString(table([]string{"win", "phase", "g/i/u/d/s", "hot", "zipf", "distinct", "scanp50", "drift", "advised"}, rows))
	verdict := "ok"
	if !r.Verified {
		verdict = fmt.Sprintf("FAIL(%d mismatches)", r.Mismatches)
	}
	fmt.Fprintf(&b, "\n%d drift event(s) latched (drift* rows); advisor recommended %d distinct configuration(s): %s\n",
		r.DriftEvents, len(r.Advised), strings.Join(r.Advised, ", "))
	fmt.Fprintf(&b, "every op outcome and scan row count verified against the generator's model: %s\n", verdict)
	b.WriteString("\nThe advisor is report-only: each window's fingerprint (mix, hot-key share,\nzipf slope, working set, scan lengths) is priced through the paper's RO/UO/MO\nmodel for every catalog configuration; \"advised\" is the cheapest seat for\nthat window's traffic with the predicted per-op saving over staying put.\n")
	b.WriteString(r.verdict())
	return b.String()
}

// verdict is the caption's last line, read off the table: which advised
// configurations, if any, are still the cheapest seat across a phase boundary.
func (r DriftResult) verdict() string {
	kept := ""
	for i := 1; i < len(r.Windows); i++ {
		if a, b := r.Windows[i-1], r.Windows[i]; a.Phase != b.Phase && a.Advice.Best.Config == b.Advice.Best.Config {
			kept += fmt.Sprintf("; %s's winner (%s) survives into %s", a.Phase, a.Advice.Best.Config, b.Phase)
		}
	}
	if kept == "" {
		return "No phase's winner survives the next phase — the RUM trade-off in motion.\n"
	}
	return kept[2:] + ".\n"
}

func driftPhaseNames() string {
	names := make([]string, len(DriftPhases))
	for i, p := range DriftPhases {
		names[i] = p.Name
	}
	return strings.Join(names, " → ")
}
