package main

import (
	"io"
	"path/filepath"
	"testing"
)

func load(t *testing.T, name string, into any) {
	t.Helper()
	if err := readJSON(filepath.Join("testdata", name), into); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	var bm benchmark
	var old report
	load(t, "BENCHMARK.json", &bm)
	load(t, "old.json", &old)

	for _, tc := range []struct {
		newFile   string
		wantWorse bool
		want      map[[2]string]string // {workload, metric} -> verdict
	}{
		{"new_steady.json", true, map[[2]string]string{
			{"point-cached", "ops_per_s"}:    "better",       // higher is better, quartiles apart
			{"point-cached", "batch_p99_us"}: "within-bound", // 10% worse, bound 15%
			{"point-cached", "read_amp"}:     "WORSE",        // 5% worse, bound 2%
			{"ingest-wal", "ops_per_s"}:      "unresolved",   // rounds spread 40%, quartiles overlap
			{"ingest-wal", "batch_p99_us"}:   "within-bound",
			{"ingest-wal", "read_amp"}:       "better",
		}},
		{"new_noisy.json", false, map[[2]string]string{
			{"point-cached", "ops_per_s"}:    "unresolved",   // 30% worse, but the side is noisy
			{"point-cached", "batch_p99_us"}: "unresolved",   // wall-clock on a noisy side
			{"point-cached", "read_amp"}:     "within-bound", // a count: noise does not touch it
			{"ingest-wal", "ops_per_s"}:      "unresolved",   // reference kernel 20% slower
			{"ingest-wal", "batch_p99_us"}:   "unresolved",
			{"ingest-wal", "read_amp"}:       "within-bound",
		}},
		{"old.json", false, map[[2]string]string{
			{"point-cached", "ops_per_s"}:    "within-bound",
			{"point-cached", "batch_p99_us"}: "within-bound",
			{"point-cached", "read_amp"}:     "within-bound",
			{"ingest-wal", "ops_per_s"}:      "unresolved",
			{"ingest-wal", "batch_p99_us"}:   "within-bound",
			{"ingest-wal", "read_amp"}:       "within-bound",
		}},
	} {
		var new report
		load(t, tc.newFile, &new)
		rows := compare(bm, old, new)
		if len(rows) != len(tc.want) {
			t.Errorf("%s: %d rows, want %d", tc.newFile, len(rows), len(tc.want))
		}
		for _, r := range rows {
			if want := tc.want[[2]string{r.workload, r.metric}]; r.verdict != want {
				t.Errorf("%s: %s %s: verdict %q, want %q", tc.newFile, r.workload, r.metric, r.verdict, want)
			}
		}
		if got := diff(io.Discard, bm, old, new); got != tc.wantWorse {
			t.Errorf("%s: diff reports worse=%v, want %v", tc.newFile, got, tc.wantWorse)
		}
	}
}

func TestVerdictWallClockRegression(t *testing.T) {
	q := func(v float64) *float64 { return &v }
	b := bound{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	o := metric{Value: 1000000, Q1: q(990000), Q3: q(1010000)}
	n := metric{Value: 850000, Q1: q(840000), Q3: q(860000)}
	if got := verdict(b, o, n, false); got != "WORSE" {
		t.Errorf("steady 15%% drop: %q, want WORSE", got)
	}
	if got := verdict(b, o, n, true); got != "unresolved" {
		t.Errorf("unsteady 15%% drop: %q, want unresolved", got)
	}
	if got := verdict(b, metric{}, n, false); got != "unresolved" {
		t.Errorf("zero base: %q, want unresolved", got)
	}
}
