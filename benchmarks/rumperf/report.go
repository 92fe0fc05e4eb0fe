package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// metricDef names one metric. The end-to-end list is BENCHMARK.json's, with
// its bounds; a test holds the two together. The bounds come from the spreads
// measured on this sandbox (../README.md, "Measured here"): a bound is at
// least three times the widest spread seen on a quiet host, and the
// wall-clock ones sit at the most the driver allows, because the host is
// often not quiet.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: share of the baseline it may worsen by
}

// The end-to-end metrics: what someone serving keys through serve waits for
// and pays (rate, batch latency median and tail, memory, set-up), and what
// someone reproducing the paper reads (the RUM triple and the device cost
// per request). Wrong results are not a metric with a bound: any fails the
// run, and they are counted in attempted/failed.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "req/s", true, 0.25},
	{"batch_p50_us", "us", false, 0.25},
	{"batch_p99_us", "us", false, 0.25},
	{"read_amp", "ratio", false, 0.05},
	{"write_amp", "ratio", false, 0.05},
	{"space_amp", "ratio", false, 0.05},
	{"cost_per_op", "cost/req", false, 0.05},
	{"allocs_per_op", "allocs/req", false, 0.05},
	{"heap_mb", "MiB", false, 0.10},
}

// The per-layer metrics, layer.metric. Counts come from the fixed untraced
// pass; timings from the traced pass, the ladder and the kernels. One that
// does not apply to a workload reads 0.
var perLayer = []metricDef{
	{name: "gen.ns_per_op", unit: "ns"},

	{name: "serve.bypass_share", unit: "ratio", higher: true},
	{name: "serve.shard_balance", unit: "ratio", higher: true},
	{name: "serve.snap_versions", unit: "count"},
	{name: "serve.batch_p999_us", unit: "us"},
	{name: "serve.batch_max_us", unit: "us"},
	{name: "serve.self_ns_per_op", unit: "ns"},
	{name: "serve.queue_p50_us", unit: "us"},
	{name: "serve.queue_p99_us", unit: "us"},
	{name: "serve.service_p50_us", unit: "us"},
	{name: "serve.service_p99_us", unit: "us"},
	{name: "serve.snapshot_get_ns", unit: "ns"},
	{name: "serve.scan_ns_per_row", unit: "ns"},

	{name: "obs.windows", unit: "count"},
	{name: "obs.drift_events", unit: "count"},
	{name: "obs.trace_self_ns_per_op", unit: "ns"},
	{name: "obs.workload_self_ns_per_op", unit: "ns"},
	{name: "obs.tap_ratio", unit: "ratio"},

	{name: "core.logical_bytes_per_op", unit: "B/req"},
	{name: "core.self_ns_per_op", unit: "ns"},

	{name: "wal.records_per_sync", unit: "ratio", higher: true},
	{name: "wal.log_bytes_per_user_byte", unit: "ratio"},
	{name: "wal.checkpoints", unit: "count"},
	{name: "wal.pages_recycled", unit: "count"},
	{name: "wal.live_log_pages", unit: "count"},
	{name: "wal.recovered_ok", unit: "count", higher: true},
	{name: "wal.recover_ms", unit: "ms"},
	{name: "wal.self_ns_per_op", unit: "ns"},
	{name: "wal.commit_ns_b1", unit: "ns"},
	{name: "wal.commit_ns_b8", unit: "ns"},
	{name: "wal.commit_ns_b32", unit: "ns"},

	{name: "btree.height", unit: "count"},
	{name: "btree.leaf_splits_per_kop", unit: "1/kreq"},
	{name: "btree.cow_copies_per_kop", unit: "1/kreq"},
	{name: "btree.self_ns_per_op", unit: "ns"},
	{name: "btree.get_ns", unit: "ns"},
	{name: "btree.insert_ns", unit: "ns"},
	{name: "btree.update_ns", unit: "ns"},
	{name: "btree.delete_ns", unit: "ns"},
	{name: "btree.scan_ns_per_row", unit: "ns"},
	{name: "btree.snapshot_get_ns", unit: "ns"},

	{name: "lsm.flushes", unit: "count"},
	{name: "lsm.compactions", unit: "count"},
	{name: "lsm.runs", unit: "count"},
	{name: "lsm.depth", unit: "count"},
	{name: "lsm.self_ns_per_op", unit: "ns"},
	{name: "lsm.get_ns", unit: "ns"},
	{name: "lsm.insert_ns", unit: "ns"},
	{name: "lsm.update_ns", unit: "ns"},
	{name: "lsm.delete_ns", unit: "ns"},
	{name: "lsm.scan_ns_per_row", unit: "ns"},

	{name: "storage.pool_hit_rate", unit: "ratio", higher: true},
	{name: "storage.pool_evictions_per_kop", unit: "1/kreq"},
	{name: "storage.pool_writebacks_per_kop", unit: "1/kreq"},
	{name: "storage.pool_fetch_failures", unit: "count"},
	{name: "storage.dev_reads_per_op", unit: "pages/req"},
	{name: "storage.dev_writes_per_op", unit: "pages/req"},
	{name: "storage.dev_batched_share", unit: "ratio", higher: true},
	{name: "storage.dev_batch_fill", unit: "ratio", higher: true},
	{name: "storage.dev_read_ns", unit: "ns"},
	{name: "storage.dev_write_ns", unit: "ns"},
	{name: "storage.dev_readbatch_ns_per_page", unit: "ns"},
	{name: "storage.dev_writebatch_ns_per_page", unit: "ns"},
	{name: "storage.pool_hit_ns", unit: "ns"},
	{name: "storage.pool_miss_ns", unit: "ns"},
	{name: "storage.pool_dirty_evict_ns", unit: "ns"},
	{name: "storage.pool_readahead_ns_per_page", unit: "ns"},
	{name: "storage.pool_flushall_ns_per_page", unit: "ns"},

	{name: "ladder.top_ns_per_op", unit: "ns"},
	{name: "host.ref_ns", unit: "ns"},
	{name: "host.ref_iqr_share", unit: "ratio"},
	{name: "host.disturbed_share", unit: "ratio"},
	{name: "trace.overhead", unit: "ratio"},
}

// metric is one reported value. A wall-clock metric is a median over the
// timed rounds of the run and carries their count and quartiles.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

func fromSummary(s summary, unit string) metric {
	return metric{Value: s.Median, Unit: unit, N: s.N, Q1: &s.Q1, Q3: &s.Q3}
}

// workloadResult is one workload's part of the report.
type workloadResult struct {
	Name        string            `json:"name"`
	Noisy       bool              `json:"noisy"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer"`
}

// report is the summary a run prints and benchdiff compares. Claim is
// always null: measuring is not claiming.
type report struct {
	Schema      string            `json:"schema"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Host        map[string]string `json:"host"`
	FlushPolicy string            `json:"flush_policy"`
	Workloads   []workloadResult  `json:"workloads"`
	Claim       *string           `json:"claim"`
}

// exitCode is 1 when any result of any workload was wrong.
func (r report) exitCode() int {
	for _, w := range r.Workloads {
		if w.Failed != 0 {
			return 1
		}
	}
	return 0
}

func hostTags() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
	}
}

// contractLine is the last line of a run: one workload's verdict and either
// its end-to-end or its per-layer metrics.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r workloadResult) contract(trace bool) contractLine {
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	out := make(map[string]metric, len(src))
	for name, m := range src {
		out[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: out}
}

// printTable prints a workload's metrics by name with their units, and for
// wall-clock metrics the sample count and the quartiles across rounds.
func (r workloadResult) printTable(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  attempted=%d failed=%d failed_share=%g noisy=%v\n",
		r.Name, r.Attempted, r.Failed, r.FailedShare, r.Noisy)
	for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Fprintf(w, "  %-36s %16.6g %-10s", name, m.Value, m.Unit)
			if m.Q1 != nil {
				fmt.Fprintf(w, " n=%-4d q1=%.6g q3=%.6g iqr=%.1f%%", m.N, *m.Q1, *m.Q3, 100*ratio(*m.Q3-*m.Q1, m.Value))
			}
			fmt.Fprintln(w)
		}
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
