package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// small is the self-test's size: the real workloads with a sixty-fourth of the
// data and three short rounds, so the whole suite runs in seconds under
// -race.
var small = sizing{clients: 2, shards: 2, chunk: 2048, div: 64, rounds: 3}

func finiteNonZero(t *testing.T, where string, set map[string]metric, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(set) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", where, len(set), len(defs))
	}
	for _, d := range defs {
		m, ok := set[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", where, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", where, d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", where, d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, want %q", where, d.name, m.Unit, d.unit)
		}
	}
}

func TestWorkloadsUntraced(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, small, 1, 0.001, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.FailedShare != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		// The driver divides by every end-to-end median: none may be 0.
		finiteNonZero(t, w.name, res.EndToEnd, endToEnd, true)
		finiteNonZero(t, w.name, res.PerLayer, perLayer, false)
		if line := res.contract(false); !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line %+v", w.name, line)
		}
		if w.snapshots && res.PerLayer["serve.bypass_share"].Value < 0.9 {
			t.Errorf("%s: bypass share %v, want >= 0.9", w.name, res.PerLayer["serve.bypass_share"].Value)
		}
		if w.lsmWAL && res.PerLayer["wal.recovered_ok"].Value != 1 {
			t.Errorf("%s: crash-recovery check did not pass", w.name)
		}
	}
}

// TestTraced runs the traced pass, the ladder and the kernels on the two
// workloads that between them reach every rung and kernel.
func TestTraced(t *testing.T) {
	for _, name := range []string{"ingest-wal", "snapshot-read"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		spans := &spanLog{epoch: time.Now()}
		res, err := runWorkload(w, small, 1, 0.001, spans)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d failed", name, res.Failed, res.Attempted)
		}
		finiteNonZero(t, name, res.PerLayer, perLayer, false)
		v := func(metric string) float64 { return res.PerLayer[metric].Value }
		structure := "btree.self_ns_per_op"
		if w.lsmWAL {
			structure = "lsm.self_ns_per_op"
		}
		sum := v(structure) + v("wal.self_ns_per_op") + v("core.self_ns_per_op") +
			v("serve.self_ns_per_op") + v("obs.trace_self_ns_per_op") + v("obs.workload_self_ns_per_op")
		if top := v("ladder.top_ns_per_op"); top <= 0 || math.Abs(sum-top) > 1e-6*top {
			t.Errorf("%s: ladder self times sum to %v, top rung is %v", name, sum, top)
		}
		for _, metric := range []string{"gen.ns_per_op", structure, "trace.overhead", "serve.queue_p99_us", "storage.pool_miss_ns"} {
			if v(metric) <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, metric, v(metric))
			}
		}
		if len(spans.spans) == 0 {
			t.Errorf("%s: no spans", name)
		}
		path := t.TempDir() + "/spans.jsonl"
		if err := spans.write(path); err != nil {
			t.Fatal(err)
		}
		if line := res.contract(true); len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics on the contract line, want %d", name, len(line.Metrics), len(perLayer))
		}
	}
}

// TestSameSeedSameRun holds the determinism the fixed pass relies on: one
// seed gives byte-identical request streams, and with one client on one
// shard, where no scheduling can reorder anything, identical RUM numbers.
func TestSameSeedSameRun(t *testing.T) {
	one := small
	one.clients, one.shards = 1, 1
	for _, w := range workloads {
		var vals [2]map[string]float64
		var streams [2]any
		for i := range vals {
			h, err := newHarness(w, one, 7)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := h.setup(false)
			if err != nil {
				t.Fatal(err)
			}
			h.generate(sys) // the second round's requests, over the first's
			streams[i] = [][]any{{h.reqs, h.want}}
			if _, err := sys.srv.Stop(); err != nil {
				t.Fatal(err)
			}
			pr, err := h.runPass(0, false)
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = pr.vals
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Errorf("%s: one seed, two request streams", w.name)
		}
		for _, metric := range []string{"read_amp", "write_amp", "space_amp", "cost_per_op"} {
			if vals[0][metric] != vals[1][metric] {
				t.Errorf("%s: %s = %v then %v from one seed", w.name, metric, vals[0][metric], vals[1][metric])
			}
		}
	}
}

// TestWrongResultFailsTheRun corrupts one expected result and follows it to
// the exit code.
func TestWrongResultFailsTheRun(t *testing.T) {
	h, err := newHarness(workloads[0], small, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := h.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	h.want[1][5].OK = !h.want[1][5].OK
	h.timedRound(sys)
	failed := h.verify(sys)
	if _, err := sys.srv.Stop(); err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("verify counted %d wrong results, want 1", failed)
	}
	res := workloadResult{Attempted: int64(small.clients * small.chunk), Failed: failed}
	if res.contract(false).Correct {
		t.Error("contract line says correct")
	}
	if code := (report{Workloads: []workloadResult{res}}).exitCode(); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if code := (report{Workloads: []workloadResult{{Attempted: 1}}}).exitCode(); code != 0 {
		t.Errorf("exit code %d for a clean run, want 0", code)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program's own tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory:", err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var bm struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	var want struct{ workloads, endToEnd, perLayer []entry }
	for _, w := range workloads {
		want.workloads = append(want.workloads, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		want.endToEnd = append(want.endToEnd, entry{Name: d.name, Unit: d.unit, Better: better(d), Bound: d.bound})
	}
	for _, d := range perLayer {
		want.perLayer = append(want.perLayer, entry{Name: d.name, Unit: d.unit, Better: better(d)})
	}
	for _, c := range []struct {
		key       string
		got, want []entry
	}{
		{"workloads", bm.Workloads, want.workloads},
		{"end_to_end", bm.EndToEnd, want.endToEnd},
		{"per_layer", bm.PerLayer, want.perLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d entries in BENCHMARK.json, %d in the program", c.key, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.key, i, c.got[i], c.want[i])
			}
		}
	}
}
