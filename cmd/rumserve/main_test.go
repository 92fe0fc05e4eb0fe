package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

// syncBuffer is a bytes.Buffer safe to read while run() writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func testConfig() config {
	return config{
		method:  "skiplist",
		shards:  2,
		clients: 2,
		batch:   16,
		n:       256,
		pool:    8,
		rate:    0,
		mix:     bench.DefaultServeMix(),
		seed:    1,
		addr:    "127.0.0.1:0",
		window:  250 * time.Millisecond,
		scrape:  5 * time.Millisecond,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// get performs one in-process request against the daemon's mux.
func get(t *testing.T, d *daemon, path string) (int, string, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")
}

// TestDaemonEndpoints drives a live daemon and exercises every HTTP surface:
// healthz, the Prometheus exposition, and the JSON debug snapshot.
func TestDaemonEndpoints(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	waitFor(t, "first snapshot with traffic", func() bool {
		last := d.ring.Last()
		if last == nil {
			return false
		}
		_, _, ops, _ := last.Totals()
		return ops > 0 && d.ring.Len() >= 3
	})

	code, body, _ := get(t, d, "/healthz")
	if code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, ctype := get(t, d, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, series := range []string{
		"rum_uptime_seconds", "rum_requests_total", "rum_records",
		"rum_ro ", "rum_uo ", "rum_mo ",
		"rum_ro_window", "rum_uo_window", "rum_mo_window",
		"rum_window_ops_per_sec", "rum_shard_balance",
		`rum_shard_ops_total{shard="0"}`, `rum_shard_ops_total{shard="1"}`,
		`rum_request_latency_ns_bucket{le="+Inf"}`,
		"rum_request_latency_ns_sum", "rum_request_latency_ns_count",
		"rum_outcome_mismatches_total",
		`rum_fault_events_total{event="fault"}`,
		`rum_live_pages_total{dir="read"}`,
		"rum_snapshot_age_seconds", "rum_goroutines",
		`rum_queue_wait_seconds_bucket{le="+Inf"}`,
		"rum_queue_wait_seconds_count",
		`rum_service_seconds_bucket{le="+Inf"}`,
		"rum_service_seconds_count",
		`rum_batch_size_bucket{le="+Inf"}`,
		`rum_mailbox_depth{shard="0"}`, `rum_mailbox_depth{shard="1"}`,
		"rum_window_queue_p99_seconds", "rum_window_service_p99_seconds",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Error("/metrics contains an empty line")
		}
	}

	code, body, ctype = get(t, d, "/debug/rum")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("/debug/rum = %d %q", code, ctype)
	}
	var doc debugRUM
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/rum is not JSON: %v\n%s", err, body)
	}
	if doc.Config.Method != "skiplist" || doc.Config.Shards != 2 {
		t.Fatalf("/debug/rum config = %+v", doc.Config)
	}
	if doc.Requests == 0 || len(doc.Shards) != 2 {
		t.Fatalf("/debug/rum snapshot empty: requests=%d shards=%d", doc.Requests, len(doc.Shards))
	}
	if doc.Cumulative.Records != doc.Shards[0].Len+doc.Shards[1].Len {
		t.Fatalf("/debug/rum records inconsistent: %+v", doc)
	}

	code, body, ctype = get(t, d, "/debug/slow")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("/debug/slow = %d %q", code, ctype)
	}
	var slow struct {
		Cap    int `json:"cap"`
		Traces []struct {
			Op      string        `json:"op"`
			Shard   int           `json:"shard"`
			Queue   time.Duration `json:"queue_ns"`
			Service time.Duration `json:"service_ns"`
			Total   time.Duration `json:"total_ns"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, body)
	}
	if slow.Cap != slowTraceCap || len(slow.Traces) == 0 {
		t.Fatalf("/debug/slow empty under load: cap=%d traces=%d", slow.Cap, len(slow.Traces))
	}
	for _, tr := range slow.Traces {
		if tr.Total != tr.Queue+tr.Service {
			t.Fatalf("/debug/slow trace breaks decomposition: %+v", tr)
		}
		if tr.Op == "" || tr.Shard < 0 || tr.Shard > 1 {
			t.Fatalf("/debug/slow malformed trace: %+v", tr)
		}
	}

	code, body, _ = get(t, d, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	res, err := d.stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	row := res.Rows[0]
	if !row.Verified {
		t.Fatalf("live run not verified: %+v", row)
	}
	if row.Requests == 0 || row.Hits == 0 || len(row.ShardOps) != 2 {
		t.Fatalf("empty final row: %+v", row)
	}
	if !strings.Contains(res.Render(), "skiplist") {
		t.Fatalf("final report missing method:\n%s", res.Render())
	}
	// A second stop fails cleanly rather than double-closing.
	if _, err := d.stop(); err == nil {
		t.Fatal("second stop did not error")
	}
}

// TestRunLifecycle runs the whole binary in-process: flags, listen, serve,
// simulated signal, final report, exit code.
func TestRunLifecycle(t *testing.T) {
	var stdout, stderr syncBuffer
	sig := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-method", "skiplist", "-shards", "2", "-clients", "2",
			"-batch", "16", "-n", "256", "-rate", "50000",
			"-addr", "127.0.0.1:0", "-scrape", "5ms", "-window", "250ms",
		}, &stdout, &stderr, sig)
	}()
	waitFor(t, "listening line", func() bool {
		return strings.Contains(stderr.String(), "listening on")
	})
	time.Sleep(50 * time.Millisecond)
	close(sig)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	if !strings.Contains(stdout.String(), "skiplist") {
		t.Fatalf("final report missing:\n%s", stdout.String())
	}
	// The wait strategy reports its own overhead; a rate-limited run leaves
	// the shards idle between batches, so there are idle periods to count.
	if !regexp.MustCompile(`(?m)^mailbox: [1-9][0-9]* idle periods, `).MatchString(stderr.String()) {
		t.Fatalf("final report lacks the mailbox line:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "verified=true") && !strings.Contains(stdout.String(), "verified") {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// TestRunFlagErrors locks in the exit codes for bad invocations.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad flag", []string{"-nonsense"}, 2},
		{"bad mix", []string{"-mix", "get=2"}, 2},
		{"unknown mix preset", []string{"-mix", "read42"}, 2},
		{"bad staleness", []string{"-staleness", "0"}, 2},
		{"bad faults", []string{"-faults", "bogus"}, 2},
		{"bad medium", []string{"-medium", "floppy"}, 2},
		{"positional args", []string{"extra"}, 2},
		{"bad shards", []string{"-shards", "0"}, 2},
		{"negative shards", []string{"-shards", "-3"}, 2},
		{"bad clients", []string{"-clients", "0"}, 2},
		{"bad batch", []string{"-batch", "-1"}, 2},
		{"zero pool", []string{"-pool", "0"}, 2},
		{"negative pool", []string{"-pool", "-4"}, 2},
		{"n below clients", []string{"-n", "1", "-clients", "4"}, 2},
		{"negative rate", []string{"-rate", "-100"}, 2},
		{"zero window", []string{"-window", "0s"}, 2},
		{"negative window", []string{"-window", "-5s"}, 2},
		{"zero scrape", []string{"-scrape", "0s"}, 2},
		{"negative scrape", []string{"-scrape", "-1ms"}, 2},
		{"bad commit batch", []string{"-commit-batch", "0"}, 2},
		{"wal with mvcc", []string{"-wal", "-mvcc"}, 2},
		{"bad dist", []string{"-dist", "latest"}, 2},
		{"bad zipf theta", []string{"-dist", "zipf:0"}, 2},
		{"NaN zipf theta", []string{"-dist", "zipf:NaN"}, 2},
		{"NaN mix", []string{"-mix", "get=NaN"}, 2},
		{"bad workload window", []string{"-workload", "-workload-window", "0"}, 2},
		{"bitmap cannot verify", []string{"-method", "bitmap"}, 2},
		{"wal on a method with no log", []string{"-wal", "-method", "hash"}, 2},
		{"unknown method", []string{"-method", "no-such-method", "-addr", "127.0.0.1:0"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb, nil)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d\nstderr:\n%s", tc.args, code, tc.code, errb.String())
			}
			// Every exit-2 rejection explains itself: the offending flag is
			// named and the usage text follows.
			if tc.code == 2 && !strings.Contains(errb.String(), "Usage") && !strings.Contains(errb.String(), "-method string") {
				t.Fatalf("rejection printed no usage:\n%s", errb.String())
			}
		})
	}
	// bitmap is in the catalog, so its rejection must say why it cannot verify.
	var errb bytes.Buffer
	if run([]string{"-method", "bitmap"}, &bytes.Buffer{}, &errb, nil); !strings.Contains(errb.String(), "modulo its cardinality") {
		t.Errorf("-method bitmap rejected without its reason:\n%s", errb.String())
	}
	// hash has no logged variant, so -wal would serve it lossy.
	errb.Reset()
	if run([]string{"-wal", "-method", "hash"}, &bytes.Buffer{}, &errb, nil); !strings.Contains(errb.String(), "no write-ahead-logged variant") {
		t.Errorf("-wal -method hash rejected without its reason:\n%s", errb.String())
	}
}

// TestDaemonScanMix is the flag rejection the daemon used to have, turned
// around: a mix with range scans is served, every scan as a barrier behind
// its client's batch, and every row count holds against the generator's model.
func TestDaemonScanMix(t *testing.T) {
	var stdout, stderr syncBuffer
	sig := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-method", "btree", "-shards", "2", "-clients", "2", "-batch", "16", "-n", "256",
			"-mix", "get=0.6,scan=0.4", "-workload", "-workload-window", "64",
			"-addr", "127.0.0.1:0", "-scrape", "5ms", "-window", "250ms",
		}, &stdout, &stderr, sig)
	}()
	waitFor(t, "listening line", func() bool {
		return strings.Contains(stderr.String(), "listening on")
	})
	time.Sleep(50 * time.Millisecond)
	close(sig)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	if !regexp.MustCompile(`(?m)^btree .* ok *$`).MatchString(stdout.String()) {
		t.Fatalf("final report is not a verified btree row:\n%s", stdout.String())
	}
	// The shards saw the scans: the fingerprint's mix has a scan share.
	if !regexp.MustCompile(`mix g/i/u/d/s (\d\.\d\d/){4}0\.\d*[1-9]`).MatchString(stdout.String()) {
		t.Errorf("the workload report shows no scan share:\n%s", stdout.String())
	}
}

// TestDaemonMVCC drives the daemon with snapshot reads on: the new metric
// series must appear, snapshot reads must actually flow, and the final
// report must still verify every outcome — at read-your-writes staleness and
// at a relaxed one, where only the stable-read composition keeps a read off
// a stale snapshot exact.
func TestDaemonMVCC(t *testing.T) {
	for _, tc := range []struct {
		mix       string
		staleness int
	}{{"read99", 1}, {"read90", 64}} {
		t.Run(fmt.Sprintf("%s/staleness=%d", tc.mix, tc.staleness), func(t *testing.T) {
			cfg := testConfig()
			cfg.method = "btree"
			cfg.mvcc = true
			cfg.staleness = tc.staleness
			mix, err := bench.ParseServeMix(tc.mix)
			if err != nil {
				t.Fatalf("ParseServeMix: %v", err)
			}
			cfg.mix = mix
			d, err := newDaemon(cfg)
			if err != nil {
				t.Fatalf("newDaemon: %v", err)
			}
			// Writes too: a relaxed cadence only goes stale once something is written.
			waitFor(t, "snapshot-served reads beside writes", func() bool {
				last := d.ring.Last()
				if last == nil || last.SnapReads == 0 {
					return false
				}
				_, _, _, records := last.Totals()
				return records > d.run.Preloaded+4*tc.staleness
			})

			_, body, _ := get(t, d, "/metrics")
			for _, series := range []string{
				`rum_snapshot_versions{shard="0"}`, `rum_snapshot_versions{shard="1"}`,
				"rum_reader_concurrency", "rum_snapshot_reads_total",
			} {
				if !strings.Contains(body, series) {
					t.Errorf("/metrics missing %q", series)
				}
			}
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, "rum_snapshot_reads_total ") && strings.TrimSpace(line) == "rum_snapshot_reads_total 0" {
					t.Errorf("rum_snapshot_reads_total stayed zero under a read-heavy mix")
				}
			}

			res, err := d.stop()
			if err != nil {
				t.Fatalf("stop: %v", err)
			}
			if row := res.Rows[0]; !row.Verified {
				t.Fatalf("mvcc live run not verified: %+v", row)
			}
		})
	}
}

// TestDaemonWorkload drives the daemon with fingerprinting on and a skewed
// stream: the rum_workload_* series must appear with live values, the
// /debug/workload document must carry the snapshot and the advisor's
// ranking, and the final report must still verify. The unfingerprinted
// daemon's scrape must carry no rum_workload_ series at all.
func TestDaemonWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.workload = true
	cfg.workloadWindow = 64
	dist, err := bench.ParseKeyDist("zipf:1.1")
	if err != nil {
		t.Fatalf("ParseKeyDist: %v", err)
	}
	cfg.dist = dist
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	waitFor(t, "a completed fingerprint window", func() bool {
		last := d.ring.Last()
		return last != nil && last.Workload != nil && last.Workload.Windows > 0
	})

	_, body, _ := get(t, d, "/metrics")
	for _, series := range []string{
		"rum_workload_windows_total", "rum_workload_window_ops",
		`rum_workload_ops_total{op="get"}`, `rum_workload_ops_total{op="insert"}`,
		`rum_workload_mix{op="get"}`, "rum_workload_hot_share",
		"rum_workload_zipf_slope", "rum_workload_distinct_keys",
		`rum_workload_hot_key_ops{rank="0"`, "rum_workload_drift_score",
		"rum_workload_drift_events_total", "rum_workload_advice_delta",
		`rum_workload_advice{current="`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	code, body, ctype := get(t, d, "/debug/workload")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("/debug/workload = %d %q", code, ctype)
	}
	var doc struct {
		Enabled   bool `json:"enabled"`
		WindowOps int  `json:"window_ops"`
		Snapshot  *struct {
			Windows uint64 `json:"windows"`
		} `json:"snapshot"`
		Last *struct {
			Ops      uint64  `json:"ops"`
			HotShare float64 `json:"hot_share"`
		} `json:"last"`
		Advice *struct {
			Ranked []struct {
				Config string  `json:"config"`
				Cost   float64 `json:"cost"`
			} `json:"ranked"`
			Best struct {
				Config string `json:"config"`
			} `json:"best"`
		} `json:"advice"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/workload is not JSON: %v\n%s", err, body)
	}
	if !doc.Enabled || doc.WindowOps != 64 {
		t.Fatalf("/debug/workload config wrong: %+v", doc)
	}
	if doc.Snapshot == nil || doc.Snapshot.Windows == 0 || doc.Last == nil || doc.Last.Ops == 0 {
		t.Fatalf("/debug/workload snapshot empty:\n%s", body)
	}
	if doc.Advice == nil || len(doc.Advice.Ranked) < 5 || doc.Advice.Best.Config == "" {
		t.Fatalf("/debug/workload advice missing:\n%s", body)
	}
	for _, key := range []string{`"ranked"`, `"current"`, `"best"`, `"delta"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/debug/workload advice lost its %s key:\n%s", key, body)
		}
	}

	res, err := d.stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if row := res.Rows[0]; !row.Verified {
		t.Fatalf("fingerprinted live run not verified: %+v", row)
	}
	if final := d.ring.Last().Workload; final == nil || final.Windows == 0 {
		t.Fatal("stop captured no final workload snapshot")
	}

	// The unfingerprinted daemon must expose no workload series and report
	// /debug/workload as disabled — the byte-identical default scrape.
	d2, err := newDaemon(testConfig())
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	defer d2.stop()
	waitFor(t, "plain daemon snapshot", func() bool { return d2.ring.Last() != nil })
	_, body, _ = get(t, d2, "/metrics")
	if strings.Contains(body, "rum_workload_") {
		t.Error("unfingerprinted /metrics leaks rum_workload_ series")
	}
	_, body, _ = get(t, d2, "/debug/workload")
	if !strings.Contains(body, `"enabled": false`) {
		t.Errorf("/debug/workload on a plain daemon: %s", body)
	}
}

// TestDaemonWAL drives the daemon with write-ahead logging on: the rum_wal_*
// series must appear with a nonzero committed watermark, and the final
// report must still verify every outcome against its prediction.
func TestDaemonWAL(t *testing.T) {
	cfg := testConfig()
	cfg.method = "lsm-level"
	cfg.wal = true
	cfg.commitBatch = 8
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	committed := func() uint64 {
		last := d.ring.Last()
		if last == nil {
			return 0
		}
		var total uint64
		for _, s := range last.Shards {
			if s.WAL != nil {
				total += s.WAL.Committed
			}
		}
		return total
	}
	waitFor(t, "committed records in a snapshot", func() bool { return committed() > 0 })

	_, body, _ := get(t, d, "/metrics")
	for _, series := range []string{
		"rum_wal_committed_total", "rum_wal_commits_total", "rum_wal_syncs_total",
		"rum_wal_checkpoints_total", `rum_wal_log_pages_total{event="written"}`,
		`rum_wal_log_pages_total{event="recycled"}`, "rum_wal_log_bytes_total",
		"rum_wal_live_log_pages", "rum_wal_overlay_records",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if strings.Contains(body, "rum_wal_committed_total 0\n") {
		t.Error("rum_wal_committed_total stayed zero under a write-carrying mix")
	}

	res, err := d.stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if row := res.Rows[0]; !row.Verified {
		t.Fatalf("wal live run not verified: %+v", row)
	}
}
