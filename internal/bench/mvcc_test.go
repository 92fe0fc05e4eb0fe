package bench

import (
	"strings"
	"testing"
)

// The -mix presets: a preset alone, a preset with overrides, and the
// unknown-preset error every CLI surfaces.
func TestParseServeMixPresets(t *testing.T) {
	for _, name := range ServeMixPresets() {
		m, err := ParseServeMix(name)
		if err != nil {
			t.Errorf("ParseServeMix(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
	}
	m, err := ParseServeMix("read99")
	if err != nil || m.Get != 0.99 {
		t.Fatalf("ParseServeMix(read99) = %+v, %v; want Get=0.99", m, err)
	}
	m, err = ParseServeMix("read99,getmiss=0.5")
	if err != nil || m.Get != 0.99 || m.GetMiss != 0.5 {
		t.Fatalf("ParseServeMix(read99,getmiss=0.5) = %+v, %v; want Get=0.99 GetMiss=0.5", m, err)
	}
	if _, err := ParseServeMix("read42"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("ParseServeMix(read42) err = %v; want unknown-preset error naming the presets", err)
	}
	if _, err := ParseServeMix("read42"); err == nil || !strings.Contains(err.Error(), "read99") {
		t.Fatalf("unknown-preset error should list valid presets, got %v", err)
	}
}

func quickMVCCCfg() MVCCConfig {
	return MVCCConfig{ServeConfig: ServeConfig{Clients: 4}, Stalenesses: []int{1, 64}, Mixes: []string{"read90"}}
}

// The stdout contract, mirroring the serve experiment: every Render column
// is independent of shard count, batch size, and runner width — only the
// stderr timing report may move.
func TestMVCCRenderDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, N: 2048, Ops: 1000}
	m := quickMVCCCfg()
	m.Shards, m.Batch = 1, 16
	a := RunMVCC(cfg, m)
	m = quickMVCCCfg()
	m.Shards, m.Batch = 8, 64
	b := RunMVCC(cfg, m)
	wide := cfg
	wide.Runner = NewRunner(4)
	m = quickMVCCCfg()
	m.Shards, m.Batch = 3, 32
	c := RunMVCC(wide, m)
	if a.Render() != b.Render() {
		t.Errorf("Render differs between shards=1 and shards=8:\n--- shards=1\n%s--- shards=8\n%s", a.Render(), b.Render())
	}
	if a.Render() != c.Render() {
		t.Errorf("Render differs between sequential and 4-worker runner:\n--- seq\n%s--- wide\n%s", a.Render(), c.Render())
	}
	for _, row := range a.Rows {
		if !row.Verified {
			t.Errorf("%s/%s/k=%d: live run not verified (err %q)", row.Method, row.Mix, row.Staleness, row.ServeErr)
		}
		if row.Clean.R <= 0 || row.Clean.M < 1 {
			t.Errorf("%s/%s/k=%d: implausible clean point %+v", row.Method, row.Mix, row.Staleness, row.Clean)
		}
		if row.SnapReads == 0 {
			t.Errorf("%s/%s/k=%d: no reads served off snapshots", row.Method, row.Mix, row.Staleness)
		}
	}
	if !strings.Contains(a.Render(), "served") || strings.Contains(a.Render(), "FAIL") {
		t.Errorf("unexpected render:\n%s", a.Render())
	}
	if strings.TrimSpace(a.RenderTiming()) == "" {
		t.Error("RenderTiming is empty")
	}
}

// Relaxing the publish cadence must never relax correctness: the streams
// are stable-read by construction, so outcomes verify at any staleness.
func TestMVCCStalenessSweepStaysVerified(t *testing.T) {
	cfg := Config{Seed: 7, N: 1024, Ops: 600}
	r := RunMVCC(cfg, MVCCConfig{ServeConfig: ServeConfig{Clients: 2, Shards: 2, Batch: 8},
		Stalenesses: []int{1, 7, 1000}, Mixes: []string{"read50", "read100"}})
	for _, row := range r.Rows {
		if !row.Verified {
			t.Errorf("%s/%s/k=%d: not verified (err %q)", row.Method, row.Mix, row.Staleness, row.ServeErr)
		}
	}
}

// An unknown mix preset is a configuration error, surfaced as a panic like
// every other bad experiment parameter.
func TestMVCCUnknownMixPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unknown mix preset") {
			t.Fatalf("recover() = %v; want unknown-mix panic", r)
		}
	}()
	RunMVCC(Config{Seed: 1, N: 64, Ops: 32}, MVCCConfig{Mixes: []string{"nope"}})
}

// A failing row's verdict names its own mismatch count, not the experiment's
// request total.
func TestMVCCRenderFailingRow(t *testing.T) {
	r := MVCCResult{N: 64, Ops: 5000, Clients: 2, Versions: 3, Rows: []MVCCRow{
		{Method: "btree", Mix: "read50", Staleness: 1, Verified: true},
		{Method: "lsm", Mix: "read99", Staleness: 256, Mismatches: 7, ServeErr: "serve: shard 1: boom"},
	}}
	out := r.Render()
	if !strings.Contains(out, "FAIL(7 mismatches serve: shard 1: boom)") {
		t.Errorf("failing row's verdict does not carry its mismatch count:\n%s", out)
	}
	if strings.Contains(out, "FAIL(5000") {
		t.Errorf("verdict prints the request total as the failure count:\n%s", out)
	}
	if strings.Count(out, "FAIL") != 1 {
		t.Errorf("the verified row rendered a failure:\n%s", out)
	}
}
