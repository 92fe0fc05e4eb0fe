package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files")

// suiteArtifacts runs the whole program in-process at the given pool width
// and returns stdout plus the three exported observability artifacts.
func suiteArtifacts(t *testing.T, parallel string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	ts := filepath.Join(dir, "ts.csv")
	metrics := filepath.Join(dir, "metrics.txt")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-exp", "all", "-quick", "-n", "2048", "-ops", "1000", "-seed", "42",
		"-parallel", parallel,
		"-faults", "seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120",
		"-trace", trace, "-timeseries", ts, "-metrics", metrics,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run(-parallel %s) exited %d; stderr:\n%s", parallel, code, stderr.String())
	}
	out := map[string][]byte{"stdout": stdout.Bytes()}
	for name, path := range map[string]string{"trace": trace, "timeseries": ts, "metrics": metrics} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-parallel %s wrote no %s: %v", parallel, name, err)
		}
		if len(b) == 0 {
			t.Fatalf("-parallel %s: empty %s", parallel, name)
		}
		out[name] = b
	}
	return out
}

// TestParallelDeterminism is the tentpole guarantee: the full suite at
// -parallel 1 and -parallel 8 must produce byte-identical stdout, trace
// JSONL, time-series CSV, and metrics text for a fixed seed. Only wall-clock
// time may differ between pool widths. The suite includes the chaos
// experiment under a non-trivial -faults plan, so fault injection, retries,
// and the crash trial are all inside the determinism contract.
func TestParallelDeterminism(t *testing.T) {
	seq := suiteArtifacts(t, "1")
	par := suiteArtifacts(t, "8")
	for _, name := range []string{"stdout", "trace", "timeseries", "metrics"} {
		a, b := seq[name], par[name]
		if bytes.Equal(a, b) {
			continue
		}
		// Locate the first divergent line for a readable failure.
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("%s differs between -parallel 1 and -parallel 8 at line %d:\n  seq: %s\n  par: %s",
					name, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("%s differs in length: %d vs %d bytes", name, len(a), len(b))
	}
}

// TestServeShardDeterminism extends the determinism contract to the serving
// layer: for each row, the experiment's stdout must be byte-identical under
// both flag sets — however the serving run is sharded, batched, or pooled;
// only the stderr timing report may differ. Together with
// TestParallelDeterminism (every experiment, chaos under its -faults plan
// included, at -parallel 1 vs 8) this is the repo's one determinism gate; it
// runs under `make check`.
func TestServeShardDeterminism(t *testing.T) {
	for _, row := range []struct {
		exp          string
		argsA, argsB []string
	}{
		{"serve", []string{"-shards", "1", "-batch", "32", "-parallel", "1"}, []string{"-shards", "8", "-batch", "64", "-parallel", "8"}},
		{"serve", []string{"-shards", "1", "-batch", "32", "-parallel", "1"}, []string{"-shards", "3", "-batch", "16", "-parallel", "8"}},
		{"mvcc", []string{"-shards", "1", "-batch", "32", "-parallel", "1"}, []string{"-shards", "8", "-batch", "64", "-parallel", "8"}},
	} {
		runExp := func(extra []string) []byte {
			t.Helper()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-exp", row.exp, "-quick", "-n", "2048", "-ops", "1000", "-seed", "42"}, extra...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) exited %d; stderr:\n%s", args, code, stderr.String())
			}
			return stdout.Bytes()
		}
		if a, b := runExp(row.argsA), runExp(row.argsB); !bytes.Equal(a, b) {
			t.Errorf("%s stdout differs:\n--- %v\n%s--- %v\n%s", row.exp, row.argsA, a, row.argsB, b)
		}
	}
}

// TestUsageGolden pins the -h output: the flag set is the CLI's public
// surface, so additions and wording changes must be deliberate. Regenerate
// with `go test ./cmd/rumbench -run Golden -update` (part of `make golden`).
func TestUsageGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("run(-h) wrote to stdout: %q", stdout.String())
	}
	path := filepath.Join("testdata", "usage.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/rumbench -run Golden -update` to create)", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Fatalf("usage drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", stderr.Bytes(), want)
	}
}

// TestRunUsageErrors checks argument validation exits 2 without running:
// unknown experiments, stray arguments, and out-of-range sizes and widths
// (the documented zeros of -n, -ops, -parallel and -sample stay valid).
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nonsense"},
		{"-exp", ""},
		{"stray"},
		{"-badflag"},
		{"-exp", "fig1", "-n", "-5"},
		{"-ops", "-1"},
		{"-parallel", "-1"},
		{"-sample", "-1"},
		{"-m", "-3"},
		{"-shards", "0"},
		{"-clients", "0"},
		{"-batch", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout: %q", args, stdout.String())
		}
	}
}

// failingCell is a run cell that fails: its frame marks the cell's own stack.
func failingCell() { panic("known cell failure") }

// TestFailedCellStackOnStderr: an experiment whose cell panicked reports the
// cell's own stack, the one bench.Runner.Map captured where the cell failed,
// on stderr, and nothing of it on stdout.
func TestFailedCellStackOnStderr(t *testing.T) {
	cell := bench.NewRunner(1).Map(1, func(int) { failingCell() })[0]
	cell.Exp, cell.Label = "exp", "cell"
	var r expResult
	r.run(func() (string, string) {
		panic(&bench.SuiteError{Exp: "exp", Cells: []*bench.CellError{cell}})
	})
	var stdout, stderr bytes.Buffer
	if !r.print(&stdout, &stderr, "exp") {
		t.Fatal("a failed experiment printed as a clean one")
	}
	if !strings.Contains(stderr.String(), ".failingCell(") {
		t.Fatalf("stderr lacks the cell's stack:\n%s", stderr.String())
	}
	if want := "==== exp ====\nFAILED: exp: 1 cell(s) failed:\n  cell exp/cell: known cell failure\n\n"; stdout.String() != want {
		t.Fatalf("stdout:\n%q\nwant\n%q", stdout.String(), want)
	}
}
