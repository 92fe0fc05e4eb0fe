package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRankingSmoke: a read-heavy memtight ask must produce a ranking that
// names at least one method and explains the scores.
func TestRankingSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-get", "0.8", "-insert", "0.1", "-update", "0.1", "-delete", "0", "-memtight"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "predicted ranking") {
		t.Errorf("missing ranking header:\n%s", out)
	}
	if !strings.Contains(out, "btree") && !strings.Contains(out, "hash") {
		t.Errorf("ranking names no catalog methods:\n%s", out)
	}
}

// TestMixValidation: malformed fractions, sizes and priority weights are
// usage errors (exit 2) caught before any ranking prints.
func TestMixValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative fraction", []string{"-get", "-0.5", "-insert", "1.5"}},
		{"sum below one", []string{"-get", "0.2", "-insert", "0.1", "-update", "0", "-delete", "0"}},
		{"sum above one", []string{"-get", "0.9", "-insert", "0.9"}},
		{"NaN fraction", []string{"-get", "NaN", "-insert", "0.5"}},
		{"stray argument", []string{"stray"}},
		{"negative size", []string{"-verify", "-size", "-1"}},
		{"zero ops", []string{"-verify", "-ops", "0"}},
		{"negative read weight", []string{"-wr", "-1"}},
		{"NaN write weight", []string{"-wu", "NaN"}},
		{"negative space weight", []string{"-wm", "-0.5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("run(%v) = %d, want 2; stderr:\n%s", tc.args, code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%v) wrote to stdout before failing validation:\n%s", tc.args, stdout.String())
			}
		})
	}
}

// TestMixSumTolerance: decimal round-off within the validation epsilon must pass.
func TestMixSumTolerance(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-get", "0.33", "-insert", "0.33", "-update", "0.34", "-delete", "0"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
}

// TestVerifyTiny: -verify on a tiny size must profile the top picks and
// report a measured RUM point per method.
func TestVerifyTiny(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-get", "0.6", "-insert", "0.3", "-update", "0.1", "-delete", "0",
		"-size", "512", "-ops", "200", "-verify"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Measured validation") {
		t.Errorf("missing validation section:\n%s", out)
	}
	if !strings.Contains(out, "measured") {
		t.Errorf("no measured points printed:\n%s", out)
	}
}

// TestVerifyGolden pins TestVerifyTiny's ranking and measured points byte
// for byte: the -verify rows are Figure 1's protocol run on the ranking's
// picks, so a change to how catalog rows are profiled must not move them.
// Regenerate with `go test ./cmd/rumwizard -run Golden -update` (part of
// `make golden`).
func TestVerifyGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-get", "0.6", "-insert", "0.3", "-update", "0.1", "-delete", "0",
		"-size", "512", "-ops", "200", "-verify"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d; stderr:\n%s", args, code, stderr.String())
	}
	path := filepath.Join("testdata", "verify.golden.txt")
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
		t.Fatalf("%v (run `go test ./cmd/rumwizard -run Golden -update` to create)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output drifted from golden file\ngot:\n%s\nwant:\n%s", stdout.Bytes(), want)
	}
}
