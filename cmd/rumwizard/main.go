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

	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, factored for tests. Returns 0 on
// success, 1 if -verify could not profile any pick, 2 on usage errors.
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
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rumwizard: unexpected arguments: %v\n", fs.Args())
		return 2
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
	fmt.Fprintln(stdout, "\nMeasured validation of the top picks (standard configurations):")
	shown := map[string]bool{}
	for _, r := range recs {
		name := r.Config.Method
		if len(shown) == 3 {
			break
		}
		if shown[name] {
			continue
		}
		spec, err := methods.Lookup(opt, name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			continue
		}
		gen := workload.New(workload.Config{Seed: 1, Mix: req.Mix, InitialLen: *size, RangeLen: 1 << 30})
		prof, err := core.RunProfile(spec.New(), gen, *ops)
		if err != nil {
			fmt.Fprintln(stderr, err)
			continue
		}
		fmt.Fprintf(stdout, "  %-16s measured %s\n", name, prof.Point)
		shown[name] = true
	}
	if len(shown) == 0 {
		fmt.Fprintln(stderr, "rumwizard: -verify profiled no methods")
		return 1
	}
	return 0
}
