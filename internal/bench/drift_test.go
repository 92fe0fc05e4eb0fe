package bench

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func quickDriftCfg() Config {
	return Config{Seed: 9, N: 1 << 14, Ops: 9000}
}

// The drift experiment's acceptance contract: byte-deterministic stdout at
// any runner width, every outcome verified, drift latched at the phase
// boundaries, and the advisor recommending at least two distinct
// configurations across the diurnal schedule.
func TestDriftDeterministicAndAdvised(t *testing.T) {
	a := RunDrift(quickDriftCfg())
	wide := quickDriftCfg()
	wide.Runner = NewRunner(8)
	b := RunDrift(wide)
	if a.Render() != b.Render() {
		t.Errorf("Render differs between sequential and 8-worker runner:\n--- seq\n%s--- wide\n%s", a.Render(), b.Render())
	}
	if !a.Verified {
		t.Fatalf("drift run not verified: %d mismatches", a.Mismatches)
	}
	if len(a.Advised) < 2 {
		t.Errorf("advisor recommended %d distinct configs %v, want ≥2 across phases", len(a.Advised), a.Advised)
	}
	if a.DriftEvents < 2 {
		t.Errorf("%d drift events latched, want ≥2 (two phase boundaries)", a.DriftEvents)
	}
	if len(a.Windows) != 12 {
		t.Errorf("%d fingerprint windows, want 12 (4 per phase, aligned)", len(a.Windows))
	}
	// Windows align with phases: every row's dominant mix op matches its
	// phase, and scans appear only in the storm.
	for _, w := range a.Windows {
		switch w.Phase {
		case "ingest":
			if w.Stats.Insert < 0.5 {
				t.Errorf("window %d (ingest): insert fraction %.2f", w.Window, w.Stats.Insert)
			}
		case "serve":
			if w.Stats.Get < 0.8 || w.Stats.Scan != 0 {
				t.Errorf("window %d (serve): get %.2f scan %.2f", w.Window, w.Stats.Get, w.Stats.Scan)
			}
		case "scan-storm":
			if w.Stats.Scan < 0.3 || w.Stats.Delete > 0.01 {
				t.Errorf("window %d (storm): scan %.2f delete %.2f", w.Window, w.Stats.Scan, w.Stats.Delete)
			}
		default:
			t.Errorf("window %d: unknown phase %q", w.Window, w.Phase)
		}
		if w.Advice.Best.Config == "" || w.Advice.Best.Cost <= 0 {
			t.Errorf("window %d: empty advice %+v", w.Window, w.Advice.Best)
		}
	}
	// The drift trail latches at boundary windows only: a latched row's
	// phase differs from its predecessor's.
	for i := 1; i < len(a.Windows); i++ {
		latched, changed := a.Windows[i].Latched, a.Windows[i].Phase != a.Windows[i-1].Phase
		if latched != changed {
			t.Errorf("window %d: latched=%v but phase change=%v", a.Windows[i].Window, latched, changed)
		}
	}
	out := a.Render()
	for _, want := range []string{"diurnal", "drift event(s) latched", "verified against the generator's model: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// The caption's verdict is read off the table, not asserted.
func TestDriftVerdict(t *testing.T) {
	win := func(phase, cfg string) DriftWindowRow {
		return DriftWindowRow{Phase: phase, Advice: obs.Advice{Best: obs.AdvisorChoice{Config: cfg}}}
	}
	moving := DriftResult{Windows: []DriftWindowRow{win("a", "x"), win("a", "x"), win("b", "y"), win("c", "x")}}
	if got := moving.verdict(); !strings.HasPrefix(got, "No phase's winner survives") {
		t.Errorf("all winners change, verdict %q", got)
	}
	sticky := DriftResult{Windows: []DriftWindowRow{win("a", "x"), win("b", "x"), win("c", "y")}}
	if got := sticky.verdict(); !strings.Contains(got, "a's winner (x) survives into b") || strings.Contains(got, "into c") {
		t.Errorf("a→b keeps x, b→c does not; verdict %q", got)
	}
}
