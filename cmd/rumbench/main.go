// Command rumbench regenerates the paper's experimental artifacts from the
// implemented structures: the Section-2 propositions, Table 1, Figures 1–3,
// the Section-3 conjecture grid, and the Section-4/5 adaptivity runs.
//
// Usage:
//
//	rumbench -exp all
//	rumbench -exp table1,fig1 -n 65536 -ops 20000
//	rumbench -exp fig3 -quick
//	rumbench -exp all -parallel 8
//	rumbench -exp table1 -trace out.jsonl -timeseries ts.csv -metrics metrics.txt
//	rumbench -exp chaos -faults seed=7,p_read=0.02,p_write=0.02,p_torn=0.5
//	rumbench -exp serve -shards 8 -clients 16 -batch 128
//	rumbench -exp mvcc -staleness 1,256 -mix read50,read99
//
// The serve experiment puts the access methods behind the sharded serving
// layer (internal/serve): conflict-free concurrent client streams, per-shard
// single-owner structures, merged RUM accounting. Its stdout (clean RUM
// point, outcome verification) is byte-identical at any -shards/-clients/
// -batch/-parallel setting; throughput and latency print to stderr.
//
// The mvcc experiment turns on the serving layer's snapshot read path
// (single-writer/many-reader shards, lock-free concurrent readers) and
// sweeps snapshot lifetime (-staleness, writes between publishes) against
// read/write mix (-mix, preset names like read99). Its stdout carries the
// deterministic replay's RUM point and retained-version footprint; read
// throughput, p99, and speedup over the single-owner baseline go to
// stderr.
//
// The chaos experiment re-runs the page-backed Table-1 methods on a degraded
// device (internal/faults): transient/permanent read and write faults, torn
// writes, and a seeded crash trial that holds each method to its declared
// durability contract. The -faults flag sets the plan; empty selects a
// default degradation profile.
//
// The drift experiment drives one serving instance through a diurnal,
// phase-shifting workload (write-heavy ingest → zipf read serving → scan
// storm) with the online workload fingerprinter attached, and maps every
// fingerprint window through the report-only RUM advisor — drift events
// latch at the phase boundaries and the advised configuration changes with
// the traffic. Its stdout is byte-deterministic at any -parallel width.
//
// The -trace/-timeseries/-metrics flags attach an observability layer
// (internal/obs) to every traced experiment (table1, fig1, fig3,
// conjecture): per-operation JSONL spans, a CSV RUM time series, and a
// Prometheus-style metrics exposition.
//
// The -parallel flag sizes the run-cell worker pool (0 = GOMAXPROCS,
// 1 = fully sequential). Every run cell owns an isolated storage stack and
// results are merged in enumeration order, so stdout and every exported
// artifact are byte-identical regardless of worker count; only wall-clock
// time changes. Timing lines go to stderr for the same reason.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/obs"
)

// knownExps lists every experiment name, in run order.
var knownExps = []string{"props", "table1", "fig1", "fig2", "fig3", "conjecture", "adaptive", "extensions", "chaos", "serve", "mvcc", "walsweep", "qdsweep", "drift"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main: parse args, execute the selected
// experiments, write artifacts. stdout carries only deterministic content
// (experiment output, export summaries); timing, stacks, and pool chatter go
// to stderr. Returns the process exit code: 0 clean, 1 if any experiment
// failed or an export could not be written, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rumbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps       = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(knownExps, ",")+",all")
		n          = fs.Int("n", 0, "dataset size in records (0 = per-experiment default)")
		ops        = fs.Int("ops", 0, "measured operations per run (0 = default)")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		m          = fs.Int("m", 256, "range query result size for table1")
		quick      = fs.Bool("quick", false, "small sizes for a fast pass")
		parallel   = fs.Int("parallel", 0, "run-cell worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		trace      = fs.String("trace", "", "write per-operation JSONL spans to this file")
		timeseries = fs.String("timeseries", "", "write the RUM time-series CSV to this file")
		metrics    = fs.String("metrics", "", "write a Prometheus-style metrics exposition to this file")
		sample     = fs.Int("sample", 256, "operations between time-series samples")
		faultSpec  = fs.String("faults", "", "fault plan for the chaos experiment, e.g. seed=1,p_read=0.01,p_write=0.01,p_torn=0.5,crash=200 (empty = default degradation profile)")
		shards     = fs.Int("shards", 4, "serve experiment: keyspace shard count")
		clients    = fs.Int("clients", 8, "serve experiment: concurrent client goroutines")
		batch      = fs.Int("batch", 64, "serve experiment: requests per client batch")
		mixSpec    = fs.String("mix", "", "mvcc experiment: comma-separated mix presets (empty = read50,read99)")
		staleSpec  = fs.String("staleness", "", "mvcc experiment: comma-separated publish cadences in writes between snapshot publishes (empty = 1,256)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0 // -h/-help: usage was requested, not a mistake
		}
		return 2
	}
	// badFlag reports an out-of-range flag value: the message and the usage
	// on stderr, nothing on stdout, exit 2.
	badFlag := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rumbench: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	for _, f := range []struct {
		name     string
		v, floor int
	}{{"n", *n, 0}, {"ops", *ops, 0}, {"parallel", *parallel, 0}, {"sample", *sample, 0},
		{"m", *m, 1}, {"shards", *shards, 1}, {"clients", *clients, 1}, {"batch", *batch, 1}} {
		if f.v < f.floor {
			return badFlag("-%s must be ≥ %d (got %d)", f.name, f.floor, f.v)
		}
	}
	plan, err := faults.ParsePlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "rumbench: -faults: %v\n", err)
		return 2
	}
	mvccMixes, err := splitMixes(*mixSpec)
	if err != nil {
		fmt.Fprintf(stderr, "rumbench: -mix: %v\n", err)
		return 2
	}
	mvccStaleness, err := splitStaleness(*staleSpec)
	if err != nil {
		fmt.Fprintf(stderr, "rumbench: -staleness: %v\n", err)
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rumbench: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	runner := bench.NewRunner(*parallel)
	cfg := bench.Config{Seed: *seed, N: *n, Ops: *ops, Runner: runner}
	if *quick {
		if cfg.N == 0 {
			cfg.N = 8192
		}
		if cfg.Ops == 0 {
			cfg.Ops = 4000
		}
	}

	valid := map[string]bool{"all": true}
	for _, e := range knownExps {
		valid[e] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !valid[e] {
			fmt.Fprintf(stderr, "rumbench: unknown experiment %q; known experiments: %s, all\n",
				e, strings.Join(knownExps, ", "))
			return 2
		}
		want[e] = true
	}
	if len(want) == 0 {
		fmt.Fprintf(stderr, "rumbench: no experiments selected; known experiments: %s, all\n",
			strings.Join(knownExps, ", "))
		return 2
	}
	all := want["all"]

	var observer *obs.Observer
	if *trace != "" || *timeseries != "" || *metrics != "" {
		observer = obs.New(obs.Config{SampleEvery: *sample})
		cfg.Obs = observer
	}

	// Experiments return (stdout, stderr) text: stdout is the deterministic
	// artifact, stderr carries anything wall-clock (the serve experiment's
	// throughput/latency report). Both print in enumeration order.
	type expJob struct {
		name string
		fn   func(bench.Config) (string, string)
	}
	quiet := func(render func(bench.Config) string) func(bench.Config) (string, string) {
		return func(c bench.Config) (string, string) { return render(c), "" }
	}
	byName := map[string]func(bench.Config) (string, string){
		"props": quiet(func(c bench.Config) string { return bench.RunProps(c).Render() }),
		"table1": quiet(func(c bench.Config) string {
			ns := []int{1 << 14, 1 << 16, 1 << 18}
			if *quick {
				ns = []int{1 << 12, 1 << 14}
			}
			return bench.RunTable1(c, ns, *m).Render()
		}),
		"fig1":       quiet(func(c bench.Config) string { return bench.RunFig1(c).Render() }),
		"fig2":       quiet(func(c bench.Config) string { return bench.RunFig2(c).Render() }),
		"fig3":       quiet(func(c bench.Config) string { return bench.RunFig3(sized(c, 16384, 8000)).Render() }),
		"conjecture": quiet(func(c bench.Config) string { return bench.RunConjecture(sized(c, 16384, 8000)).Render() }),
		"adaptive":   quiet(func(c bench.Config) string { return bench.RunAdaptive(c).Render() }),
		"extensions": quiet(func(c bench.Config) string { return bench.RunExtensions(c).Render() }),
		"chaos":      quiet(func(c bench.Config) string { return bench.RunChaos(sized(c, 16384, 8000), plan).Render() }),
		"walsweep":   quiet(func(c bench.Config) string { return bench.RunWALSweep(sized(c, 16384, 8000)).Render() }),
		"qdsweep":    quiet(func(c bench.Config) string { return bench.RunQDSweep(sized(c, 16384, 8000)).Render() }),
		"drift":      quiet(func(c bench.Config) string { return bench.RunDrift(sized(c, 16384, 12000)).Render() }),
		"serve": func(c bench.Config) (string, string) {
			r := bench.RunServe(sized(c, 16384, 8000), bench.ServeConfig{Shards: *shards, Clients: *clients, Batch: *batch})
			return r.Render(), r.RenderTiming()
		},
		"mvcc": func(c bench.Config) (string, string) {
			r := bench.RunMVCC(sized(c, 16384, 8000), bench.MVCCConfig{
				ServeConfig: bench.ServeConfig{Shards: *shards, Clients: *clients, Batch: *batch},
				Mixes:       mvccMixes, Stalenesses: mvccStaleness,
			})
			return r.Render(), r.RenderTiming()
		},
	}
	var jobs []expJob
	for _, name := range knownExps {
		if all || want[name] {
			jobs = append(jobs, expJob{name: name, fn: byName[name]})
		}
	}

	// Each experiment runs against a child observer and buffers its rendered
	// output; the main goroutine prints results and absorbs children strictly
	// in enumeration order, so worker count never shows in the artifacts.
	results := make([]expResult, len(jobs))
	runExp := func(i int) {
		ecfg := cfg
		if observer != nil {
			child := observer.Child()
			results[i].child = child
			ecfg.Obs = child
		}
		results[i].run(func() (string, string) { return jobs[i].fn(ecfg) })
	}

	failures := 0
	report := func(i int) {
		r := &results[i]
		if r.print(stdout, stderr, jobs[i].name) {
			failures++
		}
		if r.child != nil {
			r.child.Finish()
			observer.Absorb(r.child)
		}
	}

	if runner.Workers() > 1 && len(jobs) > 1 {
		// Experiments overlap on plain goroutines — cheap coordinators whose
		// run cells share the runner's bounded pool (experiment goroutines
		// must not hold pool slots themselves, or nested scheduling could
		// starve). Reporting still waits for jobs in enumeration order.
		done := make([]chan struct{}, len(jobs))
		var wg sync.WaitGroup
		for i := range jobs {
			done[i] = make(chan struct{})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer close(done[i])
				runExp(i)
			}(i)
		}
		for i := range jobs {
			<-done[i]
			report(i)
		}
		wg.Wait()
	} else {
		for i := range jobs {
			runExp(i)
			report(i)
		}
	}
	stats := runner.Stats()
	fmt.Fprintf(stderr, "(pool: %d workers, %d cells, %d failed)\n", runner.Workers(), stats.Cells, stats.Failed)

	if observer != nil {
		exportErr := false
		export := func(path, what string, write func(io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err == nil {
				err = write(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "rumbench: %s: %v\n", what, err)
				exportErr = true
				return
			}
			fmt.Fprintf(stderr, "  %s → %s\n", what, path)
		}
		export(*trace, "trace", observer.WriteTrace)
		export(*timeseries, "timeseries", observer.WriteTimeSeries)
		export(*metrics, "metrics", observer.WriteMetrics)
		fmt.Fprintf(stdout, "observability: %d spans (%d dropped), %d samples, %d page events attributed\n",
			len(observer.Spans()), observer.Dropped(), len(observer.Samples()), observer.Totals().Touched())
		if exportErr {
			return 1
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "rumbench: %d experiment(s) failed\n", failures)
		return 1
	}
	return 0
}

// expResult is one experiment's outcome. A panic (including the
// *bench.SuiteError a partially failed experiment raises after finishing its
// surviving cells) is reported deterministically on stdout, the stacks on
// stderr, and the remaining experiments still run.
type expResult struct {
	out     string
	errout  string // non-deterministic report, printed to stderr in order
	errText string
	stack   []byte
	dur     time.Duration
	child   *obs.Observer
}

// run runs one experiment into r, timing it and recovering a panic.
func (r *expResult) run(fn func() (string, string)) {
	start := time.Now()
	defer func() {
		r.dur = time.Since(start)
		v := recover()
		if v == nil {
			return
		}
		r.errText = fmt.Sprintf("FAILED: %v", v)
		err, ok := v.(*bench.SuiteError)
		if !ok {
			r.stack = debug.Stack()
			return
		}
		// The runner raises a suite error after its cells finish, so this
		// stack shows the runner: print each cell's, taken where it failed.
		for _, c := range err.Cells {
			r.stack = fmt.Appendf(r.stack, "cell %s: %v\n%s", c.Label, c.Value, c.Stack)
		}
	}()
	r.out, r.errout = fn()
}

// print writes r under its experiment's name — the deterministic text on
// stdout, stacks and timing on stderr — and reports whether it failed.
func (r *expResult) print(stdout, stderr io.Writer, name string) (failed bool) {
	fmt.Fprintf(stdout, "==== %s ====\n", name)
	if r.errText != "" {
		fmt.Fprintln(stdout, r.errText)
		fmt.Fprintf(stderr, "rumbench: %s failed:\n%s", name, r.stack)
	} else {
		fmt.Fprintln(stdout, r.out)
	}
	fmt.Fprintln(stdout)
	if r.errout != "" {
		fmt.Fprint(stderr, r.errout)
	}
	fmt.Fprintf(stderr, "(%s in %v)\n", name, r.dur.Round(time.Millisecond))
	return r.errText != ""
}

// sized fills in the sizes an experiment runs at when -n and -ops (or -quick)
// left them open and the package defaults are larger than it needs.
func sized(c bench.Config, n, ops int) bench.Config {
	if c.N == 0 {
		c.N = n
	}
	if c.Ops == 0 {
		c.Ops = ops
	}
	return c
}

// splitMixes parses the -mix flag: comma-separated ServeMix preset names,
// validated against the bench package's preset table. Empty selects the
// mvcc experiment's default sweep.
func splitMixes(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	valid := map[string]bool{}
	for _, p := range bench.ServeMixPresets() {
		valid[p] = true
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !valid[part] {
			return nil, fmt.Errorf("unknown preset %q (want %s)", part, strings.Join(bench.ServeMixPresets(), "/"))
		}
		out = append(out, part)
	}
	return out, nil
}

// splitStaleness parses the -staleness flag: comma-separated positive write
// counts between snapshot publishes. Empty selects the default sweep.
func splitStaleness(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", part, err)
		}
		if k <= 0 {
			return nil, fmt.Errorf("%d: staleness must be positive", k)
		}
		out = append(out, k)
	}
	return out, nil
}
