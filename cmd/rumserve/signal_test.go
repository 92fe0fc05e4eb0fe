package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestDaemonChild is the daemon half of TestSignalShutdown: re-executed with
// daemon flags after "--", it is rumserve's main. Run as part of the suite
// (no "--") it does nothing.
func TestDaemonChild(t *testing.T) {
	i := slices.Index(os.Args, "--")
	if i < 0 {
		t.Skip("helper: runs only when re-executed by TestSignalShutdown")
	}
	os.Exit(run(os.Args[i+1:], os.Stdout, os.Stderr, nil))
}

// TestSignalShutdown is the one thing the in-process lifecycle tests (closed
// channel, no signal) cannot see: the signal.Notify wiring. A real rumserve
// process — this test binary re-executed — serves with the workload plane on
// until a fingerprint window completes, takes a real SIGINT, and must exit 0
// with the final report — captioned as the live run's own amplification,
// not a replay's — its workload lines and the advisor's verdict.
func TestSignalShutdown(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonChild$", "--",
		"-method", "btree", "-shards", "2", "-clients", "2", "-batch", "16", "-n", "2048",
		"-rate", "20000", "-scrape", "20ms", "-window", "1s", "-addr", "127.0.0.1:0",
		"-workload", "-workload-window", "256", "-dist", "zipf:1.1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once Wait has returned

	// The daemon prints its resolved address to stderr once listening.
	addr, lines := "", bufio.NewScanner(stderr)
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), "rumserve: listening on ")
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address (scan error: %v)", lines.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained until exit

	completed := regexp.MustCompile(`(?m)^rum_workload_windows_total [1-9]`)
	waitFor(t, "a completed fingerprint window on /metrics", func() bool {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return completed.Match(body)
	})

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGINT: %v\nstdout:\n%s", err, stdout.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon ignored SIGINT")
	}
	for _, want := range []string{"btree", "\nworkload:", "\nadvisor:", "RO/UO/MO are the live run's cumulative amplification"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("final report lacks %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "replay of the") {
		t.Errorf("final report claims a replay the daemon never ran:\n%s", stdout.String())
	}
}
