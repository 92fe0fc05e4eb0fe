// Command rumviz profiles chosen access methods under a chosen workload mix
// and renders their positions in the RUM triangle — an interactive
// counterpart to the fixed Figure-1 experiment.
//
// Usage:
//
//	rumviz                                  # full catalog, balanced mix
//	rumviz -methods btree,hash,lsm-level -get 0.9 -update 0.1 -insert 0 -delete 0
//	rumviz -absolute                        # plot absolute amplifications
//	rumviz -trajectory                      # RUM trajectory sparklines per method
//	rumviz -parallel 8                      # profile methods concurrently
//
// The five operation fractions must be non-negative and sum to 1
// (workload.Mix.Validate); anything else is a usage error, exit 2.
//
// Each method profiles on its own isolated storage stack; with -parallel the
// profiles run concurrently and are merged in catalog order, so the rendered
// triangle and trajectories are identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for tests: 0 on success, 1 if a method failed to
// profile, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rumviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.String("methods", "", "comma-separated catalog names (default: all)")
		n          = fs.Int("n", 16384, "records preloaded")
		ops        = fs.Int("ops", 8000, "measured operations")
		get        = fs.Float64("get", 0.58, "point query fraction")
		rng        = fs.Float64("range", 0.0, "range query (scan) fraction")
		insert     = fs.Float64("insert", 0.2, "insert fraction")
		update     = fs.Float64("update", 0.17, "update fraction")
		del        = fs.Float64("delete", 0.05, "delete fraction")
		width      = fs.Int("width", 61, "triangle width in characters")
		absolute   = fs.Bool("absolute", false, "plot absolute amplification instead of cohort-relative position")
		trajectory = fs.Bool("trajectory", false, "render RUM trajectory sparklines (windowed RO/UO and MO over the run)")
		sample     = fs.Int("sample", 0, "operations between trajectory samples (0 = ops/60)")
		parallel   = fs.Int("parallel", 0, "profile worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// badFlag reports an out-of-range flag value: the message and the usage
	// on stderr, nothing on stdout, exit 2.
	badFlag := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rumviz: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return badFlag("unexpected arguments: %v", fs.Args())
	}

	// The triangle is drawn at least 21 characters wide (bench.RenderTriangle).
	for _, f := range []struct {
		name     string
		v, floor int
	}{{"n", *n, 1}, {"ops", *ops, 1}, {"width", *width, 21}, {"sample", *sample, 0}, {"parallel", *parallel, 0}} {
		if f.v < f.floor {
			return badFlag("-%s must be ≥ %d (got %d)", f.name, f.floor, f.v)
		}
	}

	// Resolve the method list up front (against throwaway options — each
	// profile re-looks its spec up with its own hook) so bad names fail fast.
	var names []string
	if *list != "" {
		for _, name := range strings.Split(*list, ",") {
			name = strings.TrimSpace(name)
			if _, err := methods.Lookup(methods.Options{}, name); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			names = append(names, name)
		}
	} else {
		for _, s := range methods.Catalog(methods.Options{}) {
			names = append(names, s.Name)
		}
	}

	mix := workload.Mix{Get: *get, Scan: *rng, Insert: *insert, Update: *update, Delete: *del}
	if err := mix.Validate(); err != nil {
		fmt.Fprintf(stderr, "rumviz: %v\n", err)
		return 2
	}
	cfg := bench.Config{Seed: 1, N: *n, Ops: *ops, Storage: methods.Options{PoolPages: 8}, Runner: bench.NewRunner(*parallel)}
	if *trajectory {
		every := *sample
		if every == 0 {
			every = *ops / 60
		}
		cfg.Obs = obs.New(obs.Config{SampleEvery: every})
	}
	profiles, err := bench.ProfileCatalog(cfg, "rumviz", names, mix)
	if err != nil {
		reportCells(stderr, err.(*bench.SuiteError))
		return 1
	}
	pts := make([]bench.NamedPoint, len(profiles))
	points := make([]rum.Point, len(profiles))
	for i, p := range profiles {
		pts[i] = bench.NamedPoint{Label: p.Name, Point: p.Point}
		points[i] = p.Point
	}
	if !*absolute {
		ws := rum.RelativeWeights(points)
		for i := range pts {
			pts[i].W = &ws[i]
		}
	}
	fmt.Fprintf(stdout, "RUM triangle: N=%d, ops=%d, mix get=%.2f range=%.2f insert=%.2f update=%.2f delete=%.2f\n\n",
		*n, *ops, *get, *rng, *insert, *update, *del)
	fmt.Fprintln(stdout, bench.RenderTriangle(pts, *width))
	if cfg.Obs != nil {
		fmt.Fprintln(stdout, "RUM trajectory (one sparkline column per sampling window):")
		fmt.Fprint(stdout, obs.RenderTrajectory(cfg.Obs.Samples(), 60))
	}
	return 0
}

// reportCells prints each failed cell on stderr: its label, its value and the
// stack captured where it panicked.
func reportCells(stderr io.Writer, err *bench.SuiteError) {
	for _, c := range err.Cells {
		fmt.Fprintf(stderr, "rumviz: %s: %v\n%s", c.Label, c.Value, c.Stack)
	}
}
