package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

func quickServeCfg() Config {
	return Config{Seed: 42, N: 2048, Ops: 1000}
}

// The stdout contract: every Render column is independent of shard count,
// batch size, and runner width. Vary all three and diff the rendering.
func TestServeRenderDeterministicAcrossShards(t *testing.T) {
	a := RunServe(quickServeCfg(), ServeConfig{Shards: 1, Clients: 4, Batch: 16})
	b := RunServe(quickServeCfg(), ServeConfig{Shards: 8, Clients: 4, Batch: 64})
	wide := quickServeCfg()
	wide.Runner = NewRunner(4)
	c := RunServe(wide, ServeConfig{Shards: 3, Clients: 4, Batch: 32})
	if a.Render() != b.Render() {
		t.Errorf("Render differs between shards=1 and shards=8:\n--- shards=1\n%s--- shards=8\n%s", a.Render(), b.Render())
	}
	if a.Render() != c.Render() {
		t.Errorf("Render differs between sequential and 4-worker runner:\n--- seq\n%s--- wide\n%s", a.Render(), c.Render())
	}
	for _, row := range a.Rows {
		if !row.Verified {
			t.Errorf("%s: serving run not verified (%d mismatches, err %q)", row.Method, row.Mismatches, row.ServeErr)
		}
		if row.Clean.R <= 0 || row.Clean.M < 1 {
			t.Errorf("%s: implausible clean point %+v", row.Method, row.Clean)
		}
	}
	if !strings.Contains(a.Render(), "served") || strings.Contains(a.Render(), "FAIL") {
		t.Errorf("unexpected render:\n%s", a.Render())
	}
}

// Client streams must be conflict-free (disjoint key namespaces) and
// reproducible from the seed alone.
func TestServeStreamsConflictFreeAndReproducible(t *testing.T) {
	s1, s2 := serveStreams(7, 4, 500), serveStreams(7, 4, 500)
	owner := make(map[core.Key]int)
	for c := range s1 {
		init, ops, want := drain(s1[c], 256)
		init2, ops2, want2 := drain(s2[c], 256)
		if len(ops) != len(ops2) || len(init) != len(init2) {
			t.Fatalf("client %d: streams not reproducible", c)
		}
		if len(ops) != 500 {
			t.Fatalf("client %d: stream ran dry after %d requests, want 500", c, len(ops))
		}
		for i := range ops {
			if ops[i] != ops2[i] || want[i] != want2[i] {
				t.Fatalf("client %d op %d: streams not reproducible", c, i)
			}
		}
		touch := func(k core.Key) {
			if prev, ok := owner[k]; ok && prev != c {
				t.Fatalf("key %#x touched by clients %d and %d", k, prev, c)
			}
			owner[k] = c
		}
		for _, r := range init {
			touch(r.Key)
		}
		for _, op := range ops {
			touch(op.Key)
		}
	}
}

// drain draws a scan-free stream's preload and every request it hands out,
// with their predictions.
func drain(s Stream, perClient int) (init []core.Record, ops []serve.Request, want []serve.Result) {
	init = s.InitRecords(perClient)
	reqs, w := make([]serve.Request, 16), make([]serve.Result, 16)
	for n, _ := s.Fill(reqs, w); n > 0; n, _ = s.Fill(reqs, w) {
		ops, want = append(ops, reqs[:n]...), append(want, w[:n]...)
	}
	return init, ops, want
}

// The timing half must stay out of stdout; sanity-check it renders and is
// explicitly marked non-deterministic.
func TestServeRenderTiming(t *testing.T) {
	r := RunServe(quickServeCfg(), ServeConfig{Shards: 2, Clients: 2, Batch: 32})
	timing := r.RenderTiming()
	if !strings.Contains(timing, "non-deterministic") || !strings.Contains(timing, "req/s") {
		t.Errorf("unexpected timing render:\n%s", timing)
	}
	if strings.Contains(r.Render(), "shards=") {
		t.Errorf("stdout render leaks shard count:\n%s", r.Render())
	}
}
