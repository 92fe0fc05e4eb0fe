package main

import (
	"bytes"
	"strings"
	"testing"
)

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

// TestUsageErrors: an invalid mix or an unknown method name is a usage
// error, exit 2, before anything is profiled or printed.
func TestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"invalid mix":    {"-get", "0.9", "-insert", "0.9"},
		"unknown method": {"-methods", "btree,no-such-method"},
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
}
