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

// TestTriangleGolden pins the rendered triangle and trajectory sparklines
// byte for byte: rumviz draws Figure 1's protocol under the user's mix, so a
// change to how catalog rows are profiled must not move a character here.
// The -absolute case pins the triangle placed by each point's own
// amplifications rather than by its rank in the cohort. Regenerate with
// `go test ./cmd/rumviz -run Golden -update` (part of `make golden`).
func TestTriangleGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"triangle.golden.txt", []string{"-methods", "btree,hash,lsm-level,skiplist", "-n", "2048", "-ops", "1200", "-trajectory"}},
		{"triangle-absolute.golden.txt", []string{"-methods", "btree,hash,lsm-level,skiplist", "-n", "2048", "-ops", "1200", "-absolute"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d; stderr:\n%s", c.args, code, stderr.String())
		}
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/rumviz -run Golden -update` to create)", err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Fatalf("%s: output drifted from golden file\ngot:\n%s\nwant:\n%s", c.file, stdout.Bytes(), want)
		}
	}
}

// TestTrajectoryParallelDeterminism: the triangle and the trajectory
// sparklines are byte-identical whatever the profile worker count, as the
// package doc promises.
func TestTrajectoryParallelDeterminism(t *testing.T) {
	render := func(parallel string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-methods", "btree,hash,lsm-level,skiplist", "-n", "2048", "-ops", "1200", "-trajectory", "-parallel", parallel}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run -parallel %s = %d; stderr:\n%s", parallel, code, stderr.String())
		}
		return stdout.String()
	}
	one, four := render("1"), render("4")
	if !strings.Contains(one, "RUM trajectory") {
		t.Fatalf("no trajectory in output:\n%s", one)
	}
	if one != four {
		t.Fatalf("-parallel 1 and -parallel 4 differ:\n%s\n---\n%s", one, four)
	}
}

// TestUsageErrors: an invalid mix, an unknown method name, an out-of-range
// size or width, or a stray argument is a usage error, exit 2, before
// anything is profiled or printed; the narrowest width still draws.
func TestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"invalid mix":       {"-get", "0.9", "-insert", "0.9"},
		"unknown method":    {"-methods", "btree,no-such-method"},
		"negative n":        {"-n", "-5"},
		"zero n":            {"-n", "0"},
		"zero ops":          {"-ops", "0"},
		"negative sample":   {"-trajectory", "-sample", "-1"},
		"negative parallel": {"-parallel", "-1"},
		"stray argument":    {"-n", "256", "-ops", "100", "btree"},
		"zero width":        {"-width", "0"},
		"negative width":    {"-width", "-5"},
		"width 20":          {"-width", "20"},
	}
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2; stderr:\n%s", name, args, code, stderr.String())
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%s: want only a diagnostic on stderr; stdout:\n%s", name, stdout.String())
		}
	}
	// The narrowest accepted width draws a triangle that wide.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-methods", "btree", "-n", "256", "-ops", "100", "-width", "21"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-width 21: exit %d; stderr:\n%s", code, stderr.String())
	}
	base := false
	for _, line := range strings.Split(stdout.String(), "\n") {
		base = base || len(line) == 21 && strings.Count(line, "_") > 15
	}
	if !base {
		t.Fatalf("-width 21 drew no 21-character base:\n%s", stdout.String())
	}
}

// failingCell is a profile cell that fails: its frame marks the cell's own
// stack.
func failingCell() { panic("known cell failure") }

// TestFailedCellStackOnStderr: a method whose profile cell panicked is
// reported on stderr with the cell's own stack, the one bench.Runner.Map
// captured where the cell failed.
func TestFailedCellStackOnStderr(t *testing.T) {
	cell := bench.NewRunner(1).Map(1, func(int) { failingCell() })[0]
	cell.Exp, cell.Label = "rumviz", "btree"
	var stderr bytes.Buffer
	reportCells(&stderr, &bench.SuiteError{Exp: "rumviz", Cells: []*bench.CellError{cell}})
	if got := stderr.String(); !strings.HasPrefix(got, "rumviz: btree: known cell failure\n") || !strings.Contains(got, ".failingCell(") {
		t.Fatalf("stderr lacks the cell's stack:\n%s", got)
	}
}
