package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files")

// configLabels are the label names whose values are configuration — fixed
// by the daemon's flags and the histogram layouts, not by what the traffic
// happened to do — and so belong to the scrape's skeleton.
var configLabels = map[string]bool{"shard": true, "op": true, "dir": true, "event": true, "le": true}

// scrapeSkeleton reduces a /metrics body to what a scraper's schema sees:
// # HELP / # TYPE lines verbatim, family order, series names, label keys,
// and configuration label values. Sample values, exemplars, and data-valued
// labels (hot keys, advisor picks) are masked to *, and runs of identical
// masked lines — the per-rank hot-key rows — collapse to one.
func scrapeSkeleton(body string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line, _, _ = strings.Cut(line, " # ") // exemplar suffix
			name, labels := line[:strings.LastIndexByte(line, ' ')], ""
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
			}
			var ls []string
			for _, l := range strings.Split(labels, `",`) {
				if l == "" {
					continue
				}
				k, v, _ := strings.Cut(l, `="`)
				if !configLabels[k] {
					v = "*"
				}
				ls = append(ls, k+`="`+strings.TrimSuffix(v, `"`)+`"`)
			}
			line = name
			if len(ls) > 0 {
				line += "{" + strings.Join(ls, ",") + "}"
			}
			line += " *"
		}
		if len(out) == 0 || out[len(out)-1] != line {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// TestScrapeSkeletonGolden pins what a scraper sees of four daemon
// configurations — default, -wal, -workload -dist zipf:1.1, -medium mqssd —
// against goldens captured before the telemetry planes moved into
// obs.Sources: same families, same order, same series and label sets.
// Regenerate with `go test ./cmd/rumserve -run Golden -update` after an
// intended change to the exposition.
func TestScrapeSkeletonGolden(t *testing.T) {
	zipf, err := bench.ParseKeyDist("zipf:1.1")
	if err != nil {
		t.Fatalf("ParseKeyDist: %v", err)
	}
	cases := []struct {
		name string
		tune func(*config)
	}{
		{"default", func(*config) {}},
		{"wal", func(c *config) { c.method, c.wal, c.commitBatch = "lsm-level", true, 8 }},
		{"workload", func(c *config) { c.workload, c.workloadWindow, c.dist = true, 64, zipf }},
		{"mqssd", func(c *config) { c.medium = storage.MQSSD }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.method = "btree"
			tc.tune(&cfg)
			d, err := newDaemon(cfg)
			if err != nil {
				t.Fatalf("newDaemon: %v", err)
			}
			defer d.stop()
			waitFor(t, "a sampled window with every enabled plane live", func() bool {
				last := d.ring.Last()
				if last == nil || d.ring.Len() < 3 {
					return false
				}
				if _, _, ops, _ := last.Totals(); ops == 0 {
					return false
				}
				if cfg.workload {
					w := last.Workload
					return w != nil && w.Last != nil && len(w.Last.Hot) > 0
				}
				return true
			})
			_, body, _ := get(t, d, "/metrics")
			got := scrapeSkeleton(body)
			path := filepath.Join("testdata", "scrape_"+tc.name+".golden.txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/rumserve -run Golden -update` to create)", err)
			}
			if got != string(want) {
				t.Fatalf("scrape skeleton drifted from %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// sample returns the value of one exact series line of a /metrics body.
func sample(t *testing.T, body, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestLiveLedgerReconciles is the observer ≡ device-ledger gate extended to
// the daemon: under `-medium mqssd -faults seed=7,p_read=0.001`, the stopped
// run's rum_live_pages_total families times the page size equal the merged
// shard meters' physical bytes exactly, and the fault, retry, and batch
// families equal the merged shard ledgers. The meters are charged by the
// devices, the families by the shards' storage hooks; only a single ledger
// read at a single instant makes them agree to the byte. Batching depends on
// the medium alone, so the faulted run must show both faults and batches —
// a read wave that fails part-way is charged for the pages it reached — and
// the fault-free run batches with no fault.
func TestLiveLedgerReconciles(t *testing.T) {
	for _, spec := range []string{"seed=7,p_read=0.001", ""} {
		t.Run("faults="+spec, func(t *testing.T) {
			plan, err := faults.ParsePlan(spec)
			if err != nil {
				t.Fatalf("ParsePlan: %v", err)
			}
			cfg := testConfig()
			cfg.method, cfg.medium, cfg.plan = "btree", storage.MQSSD, plan
			d, err := newDaemon(cfg)
			if err != nil {
				t.Fatalf("newDaemon: %v", err)
			}
			waitFor(t, "device reads and writes, a batch and every planned fault kind to reconcile", func() bool {
				last := d.ring.Last()
				if last == nil || last.Phases == nil {
					return false
				}
				c := last.Phases.Pages
				return c.Reads() > 0 && c.Writes() > 0 && c.Batches > 0 && (c.Faults > 0 || !plan.Active())
			})
			d.stop() // injected faults fail ops by design; the verdict is not under test
			final := d.ring.Last()
			meter, _, _, _ := final.Totals()
			ledger := final.Phases.Pages
			_, body, _ := get(t, d, "/metrics")

			const pageSize = 4096 // methods.Options default; the daemon never overrides it
			if got := sample(t, body, `rum_live_pages_total{dir="read"}`) * pageSize; got != meter.PhysicalRead() || got == 0 {
				t.Errorf("page reads × page size = %d, merged shard meters read %d physical bytes", got, meter.PhysicalRead())
			}
			if got := sample(t, body, `rum_live_pages_total{dir="write"}`) * pageSize; got != meter.PhysicalWritten() || got == 0 {
				t.Errorf("page writes × page size = %d, merged shard meters wrote %d physical bytes", got, meter.PhysicalWritten())
			}
			for series, want := range map[string]uint64{
				`rum_fault_events_total{event="fault"}`: ledger.Faults,
				`rum_fault_events_total{event="torn"}`:  ledger.TornWrites,
				`rum_fault_events_total{event="crash"}`: ledger.Crashes,
				`rum_fault_events_total{event="retry"}`: ledger.Retries,
				`rum_live_batch_submissions_total`:      ledger.Batches,
				`rum_live_batched_pages_total`:          ledger.BatchedPages,
			} {
				if got := sample(t, body, series); got != want {
					t.Errorf("%s = %d, merged shard ledgers hold %d", series, got, want)
				}
			}
			if (ledger.Faults > 0) != plan.Active() || ledger.Batches == 0 {
				t.Errorf("vacuous: faults=%d batches=%d under plan %q", ledger.Faults, ledger.Batches, spec)
			}
		})
	}
}
