// Command rumperf is the repository's performance benchmark. It drives the
// real serving stack, bench.StreamGen clients through serve.Server.Do,
// core.Instrumented, wal.Logged, btree or lsm, storage.BufferPool and
// storage.Device, in a closed loop in which every result is checked against
// its prediction, and prints wall-clock metrics next to the paper's own
// currency, the RUM triple and the device cost per request. Every layer is
// measured from outside: by timing calls into its public functions and by
// reading its public stats. See ../README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		names   = flag.String("workload", "all", "workload to run: a name, a comma-separated list, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated request streams")
		seconds = flag.Float64("seconds", 10, "wall time of the timing pass")
		trace   = flag.Int("trace", 0, "1: run the traced pass, the layer ladder and the kernels, and end with the per-layer metrics")
		out     = flag.String("out", "", "with -trace 1, the span file (default .bench_build/rumperf-spans.jsonl)")
		repPath = flag.String("report", "", "also write the summary JSON to this file, for benchdiff")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: rumperf [-workload name[,name]|all] [-seed n] [-seconds s] [-trace 0|1] [-out spans.jsonl] [-report summary.json]")
		os.Exit(2)
	}
	var run []workload
	if *names == "all" {
		run = workloads
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, err := findWorkload(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rumperf:", err)
				os.Exit(2)
			}
			run = append(run, w)
		}
	}

	traced := *trace == 1
	rep := report{Schema: "rumperf/1", Seed: *seed, Seconds: *seconds, Trace: traced,
		Host: hostTags(), FlushPolicy: flushPolicy}
	var spans *spanLog
	if traced {
		spans = &spanLog{epoch: time.Now()}
	}
	fmt.Printf("rumperf seed=%d seconds=%g trace=%d clients=%d shards=%d batch=%d closed loop\nflush policy: %s\n",
		*seed, *seconds, *trace, fullSize.clients, fullSize.shards, batchSize, flushPolicy)
	for _, w := range run {
		res, err := runWorkload(w, fullSize, *seed, *seconds, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rumperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.printTable(os.Stdout)
		rep.Workloads = append(rep.Workloads, res)
	}
	if traced {
		path := *out
		if path == "" {
			path = ".bench_build/rumperf-spans.jsonl"
		}
		if err := spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "rumperf:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%d spans written to %s\n", len(spans.spans), path)
	}
	if *repPath != "" {
		f, err := os.Create(*repPath)
		if err == nil {
			err = writeJSONLine(f, rep)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rumperf:", err)
			os.Exit(1)
		}
	}
	fmt.Println()
	if err := writeJSONLine(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "rumperf:", err)
		os.Exit(1)
	}
	// One line per workload, the driver's contract; with a single workload
	// it is the last line of the output.
	for _, res := range rep.Workloads {
		if err := writeJSONLine(os.Stdout, res.contract(traced)); err != nil {
			fmt.Fprintln(os.Stderr, "rumperf:", err)
			os.Exit(1)
		}
	}
	os.Exit(rep.exitCode())
}

// runWorkload measures one workload. Untraced, it runs the fixed pass, the
// timing pass and five more set-ups, and the end-to-end metrics come from
// those alone. With spans non-nil it runs the fixed pass untraced and traced,
// the layer ladder and the kernels, and fills in the per-layer timings.
func runWorkload(w workload, sz sizing, seed int64, seconds float64, spans *spanLog) (workloadResult, error) {
	var none workloadResult
	h, err := newHarness(w, sz, seed)
	if err != nil {
		return none, err
	}
	fixed, err := h.runPass(0, false)
	if err != nil {
		return none, err
	}
	vals := fixed.vals
	own := []*passResult{fixed} // the passes the workload's own timings come from
	res := workloadResult{Name: w.name, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	var others []*passResult
	var traced, quiet *passResult
	setups := []timedSample{fixed.setup}
	if spans == nil {
		timing, err := h.runPass(seconds, false)
		if err != nil {
			return none, err
		}
		own = append(own, timing)
		setups = append(setups, timing.setup)
		for len(setups) < 7 {
			refBefore := h.quietRef()
			sys, err := h.setup(false)
			if err != nil {
				return none, err
			}
			if _, err := sys.srv.Stop(); err != nil {
				return none, err
			}
			setups = append(setups, timedSample{sys.setupS, max(refBefore, h.quietRef())})
		}
	} else {
		h.spans = spans
		if traced, err = h.runPass(0, true); err != nil {
			return none, err
		}
		others = append(others, traced)
		for _, name := range []string{"serve.queue_p50_us", "serve.queue_p99_us", "serve.service_p50_us", "serve.service_p99_us"} {
			vals[name] = traced.vals[name]
		}
		if w.observed {
			control := *h
			control.w.observed = false
			if quiet, err = control.runPass(0, false); err != nil {
				return none, err
			}
			others = append(others, quiet)
		}
		ck, err := h.ladder(vals)
		if err != nil {
			return none, err
		}
		res.Attempted, res.Failed = ck.attempted, ck.failed
		h.storageKernels(vals)
		if w.lsmWAL {
			if err := h.commitKernels(vals); err != nil {
				return none, err
			}
		}
	}

	// The reference kernel's median over the whole run is the host's usual
	// pace during it; a timing next to a reading well above that was
	// disturbed.
	var refs []float64
	for _, s := range setups {
		refs = append(refs, s.refMax)
	}
	for _, p := range append(others, own...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, r := range p.rounds {
			refs = append(refs, r.refMax)
		}
	}
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	ref := summarize(refs)
	usual := ref.Median
	vals["host.ref_ns"], vals["host.ref_iqr_share"] = usual, ref.iqrShare()
	res.Noisy = ref.iqrShare() > noisyAbove

	// wall summarizes one wall-clock reading per round over the given passes,
	// leaving out the disturbed rounds.
	wall := func(of func(roundStat) float64, passes ...*passResult) summary {
		var samples []timedSample
		for _, p := range passes {
			for _, rs := range p.rounds {
				samples = append(samples, timedSample{of(rs), rs.refMax})
			}
		}
		return summarize(steady(samples, usual))
	}
	opsPerS := func(r roundStat) float64 { return r.opsPerS }
	if traced != nil {
		vals["trace.overhead"] = ratio(wall(opsPerS, fixed).Median, wall(opsPerS, traced).Median)
	}
	if quiet != nil {
		vals["obs.tap_ratio"] = ratio(wall(opsPerS, quiet).Median, wall(opsPerS, fixed).Median)
	}
	disturbed, rounds := 0, 0
	for _, p := range own {
		for _, rs := range p.rounds {
			rounds++
			if (timedSample{refMax: rs.refMax}).disturbed(usual) {
				disturbed++
			}
		}
	}
	vals["host.disturbed_share"] = ratio(float64(disturbed), float64(rounds))

	for _, d := range endToEnd {
		switch d.name {
		case "setup_s":
			res.EndToEnd[d.name] = fromSummary(summarize(steady(setups, usual)), d.unit)
		case "ops_per_s":
			res.EndToEnd[d.name] = fromSummary(wall(opsPerS, own...), d.unit)
		case "batch_p50_us":
			res.EndToEnd[d.name] = fromSummary(wall(func(r roundStat) float64 { return r.p50us }, own...), d.unit)
		case "batch_p99_us":
			res.EndToEnd[d.name] = fromSummary(wall(func(r roundStat) float64 { return r.p99us }, own...), d.unit)
		default:
			res.EndToEnd[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
	}
	for _, d := range perLayer {
		res.PerLayer[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res, nil
}

// noisyAbove is how far apart the quartiles of the reference kernel may be,
// as a share of its median, before the run is marked noisy: the host did not
// keep one pace through it, and a comparison that uses its wall-clock
// medians is unresolved. On a quiet host the share is 0.01 to 0.05.
const noisyAbove = 0.05
