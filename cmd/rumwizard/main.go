// Command rumwizard is the Section-5 "access method wizard": describe a
// workload and the hardware's RUM priorities, get a ranked list of access
// methods with suggested tuning — and optionally a measured validation of
// the top picks.
//
// Usage:
//
//	rumwizard -get 0.7 -insert 0.2 -update 0.1 -delete 0 -size 1000000
//	rumwizard -get 0.2 -insert 0.7 -update 0.1 -delete 0 -flash   # endurance-limited device
//	rumwizard -range 0.6 -get 0.3 -insert 0.1 -update 0 -delete 0 -memtight -verify
//
// The operation fractions must be non-negative and sum to 1 (within a small
// epsilon, workload.Mix.Validate); anything else is a usage error, since a
// malformed mix would silently skew both the predicted ranking and the
// -verify workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, factored for tests. Returns 0 on
// success, 1 if -verify failed to profile a pick, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rumwizard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		get      = fs.Float64("get", 0.5, "point query fraction")
		rng      = fs.Float64("range", 0.0, "range query (scan) fraction")
		insert   = fs.Float64("insert", 0.25, "insert fraction")
		update   = fs.Float64("update", 0.2, "update fraction")
		del      = fs.Float64("delete", 0.05, "delete fraction")
		size     = fs.Int("size", 1<<16, "expected record count")
		read     = fs.Float64("wr", 1, "priority weight on read cost")
		write    = fs.Float64("wu", 1, "priority weight on write cost")
		space    = fs.Float64("wm", 1, "priority weight on space")
		flash    = fs.Bool("flash", false, "endurance-limited storage: price page writes at the SSD's write/read cost ratio")
		memtight = fs.Bool("memtight", false, "scarce memory: bias against space amplification")
		verify   = fs.Bool("verify", false, "profile the top 3 picks on the described workload")
		ops      = fs.Int("ops", 8000, "operations for -verify")
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
		fmt.Fprintf(stderr, "rumwizard: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rumwizard: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	for _, f := range []struct {
		name string
		v    int
	}{{"size", *size}, {"ops", *ops}} {
		if f.v < 1 {
			return badFlag("-%s must be ≥ 1 (got %d)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"wr", *read}, {"wu", *write}, {"wm", *space}} {
		if !(f.v >= 0) { // NaN fails too
			return badFlag("-%s must be a non-negative weight (got %g)", f.name, f.v)
		}
	}

	mix := workload.Mix{Get: *get, Scan: *rng, Insert: *insert, Update: *update, Delete: *del}
	if err := mix.Validate(); err != nil {
		fmt.Fprintf(stderr, "rumwizard: %v\n", err)
		return 2
	}

	req := core.Requirements{
		Mix:         mix,
		DataSize:    *size,
		Priorities:  core.Priorities{Read: *read, Write: *write, Space: *space},
		FlashLike:   *flash,
		MemoryTight: *memtight,
	}
	opt := methods.Options{}
	recs := core.Recommend(req, opt.Model(*size))
	fmt.Fprintln(stdout, "Access-method wizard (predicted ranking, lower score = better):")
	fmt.Fprint(stdout, core.Explain(recs))

	if !*verify {
		return 0
	}
	var picks []string
	seen := map[string]bool{}
	for _, r := range recs {
		if name := r.Config.Method; len(picks) < 3 && !seen[name] {
			seen[name] = true
			picks = append(picks, name)
		}
	}
	fmt.Fprintln(stdout, "\nMeasured validation of the top picks (standard configurations):")
	profiles, err := bench.ProfileCatalog(bench.Config{Seed: 1, N: *size, Ops: *ops, Storage: opt}, "rumwizard", picks, mix)
	if err != nil {
		for _, c := range err.(*bench.SuiteError).Cells {
			fmt.Fprintf(stderr, "rumwizard: %s: %v\n%s", c.Label, c.Value, c.Stack)
		}
		return 1
	}
	for _, p := range profiles {
		fmt.Fprintf(stdout, "  %-16s measured %s\n", p.Name, p.Point)
	}
	return 0
}
