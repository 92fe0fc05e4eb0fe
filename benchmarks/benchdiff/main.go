// Command benchdiff compares two rumperf summaries (rumperf -report) of the
// same workloads, old against new. For every workload and end-to-end metric
// it prints old, new, the ratio new/old, the bound BENCHMARK.json fixes for
// the metric, and a verdict:
//
//	better        new is on the good side of old
//	within-bound  new is worse than old by no more than the bound
//	WORSE         new is worse than old by more than the bound
//	unresolved    the pair cannot tell: a side is noisy, the host's
//	              reference kernel ran at a different speed on the two
//	              sides, or the quartiles across rounds overlap while a
//	              side's inter-quartile range is wider than the bound
//
// It exits 1 when any verdict is WORSE, 2 on a usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// refShiftLimit is how far host.ref_ns may differ between the two sides
// before their wall-clock metrics stop being comparable.
const refShiftLimit = 0.05

type metric struct {
	Value float64  `json:"value"`
	Q1    *float64 `json:"q1"`
	Q3    *float64 `json:"q3"`
}

// wallClock reports whether the metric is a median over timed rounds, the
// kind host noise moves.
func (m metric) wallClock() bool { return m.Q1 != nil && m.Q3 != nil }

func (m metric) iqrShare() float64 {
	if !m.wallClock() || m.Value == 0 {
		return 0
	}
	return (*m.Q3 - *m.Q1) / m.Value
}

type workloadResult struct {
	Name     string            `json:"name"`
	Noisy    bool              `json:"noisy"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
}

type report struct {
	Workloads []workloadResult `json:"workloads"`
}

func (r report) find(name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []bound `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric of one workload. unsteady says the pair's
// wall-clock metrics cannot be trusted.
func verdict(b bound, o, n metric, unsteady bool) string {
	if o.Value == 0 {
		return "unresolved" // no base to take a share of
	}
	if o.wallClock() && n.wallClock() {
		overlap := *o.Q1 <= *n.Q3 && *n.Q1 <= *o.Q3
		if unsteady || overlap && math.Max(o.iqrShare(), n.iqrShare()) > b.Bound {
			return "unresolved"
		}
	}
	worse := (n.Value - o.Value) / o.Value
	if b.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > b.Bound:
		return "WORSE"
	case worse < 0:
		return "better"
	default:
		return "within-bound"
	}
}

// row is one line of the comparison.
type row struct {
	workload, metric string
	old, new, bound  float64
	verdict          string
}

// compare judges every end-to-end metric of every workload of old that new
// also has.
func compare(bm benchmark, old, new report) []row {
	var rows []row
	for _, ow := range old.Workloads {
		nw, ok := new.find(ow.Name)
		if !ok {
			continue
		}
		oref, nref := ow.PerLayer["host.ref_ns"].Value, nw.PerLayer["host.ref_ns"].Value
		unsteady := ow.Noisy || nw.Noisy || oref > 0 && math.Abs(nref/oref-1) > refShiftLimit
		for _, b := range bm.EndToEnd {
			o, okO := ow.EndToEnd[b.Name]
			n, okN := nw.EndToEnd[b.Name]
			if okO && okN {
				rows = append(rows, row{ow.Name, b.Name, o.Value, n.Value, b.Bound, verdict(b, o, n, unsteady)})
			}
		}
	}
	return rows
}

// diff prints the comparison and reports whether any metric was WORSE.
func diff(w io.Writer, bm benchmark, old, new report) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, r := range compare(bm, old, new) {
		anyWorse = anyWorse || r.verdict == "WORSE"
		fmt.Fprintf(w, "%-18s %-14s %14.6g %14.6g %9.4f %5.0f%%  %s\n",
			r.workload, r.metric, r.old, r.new, r.new/r.old, 100*r.bound, r.verdict)
	}
	for _, ow := range old.Workloads {
		if _, ok := new.find(ow.Name); !ok {
			fmt.Fprintf(w, "%-18s missing from new\n", ow.Name)
		}
	}
	return anyWorse
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition that fixes the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] old.json new.json")
		os.Exit(2)
	}
	var bm benchmark
	var old, new report
	for path, into := range map[string]any{*benchPath: &bm, flag.Arg(0): &old, flag.Arg(1): &new} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if diff(os.Stdout, bm, old, new) {
		os.Exit(1)
	}
}
