package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// driveMix pushes a deterministic mixed batch stream through s: inserts
// 0..n-1, then gets hammering a hot subset, then updates and deletes.
func driveMix(t *testing.T, s *Server, n int) {
	t.Helper()
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{Op: OpInsert, Key: core.Key(i), Value: core.Value(i)})
	}
	res := make([]Result, len(reqs))
	if err := s.Do(reqs, res); err != nil {
		t.Fatal(err)
	}
	reqs = reqs[:0]
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{Op: OpGet, Key: core.Key(i % 8)}) // hot 8 keys
	}
	for i := 0; i < n/4; i++ {
		reqs = append(reqs, Request{Op: OpUpdate, Key: core.Key(i), Value: 7})
	}
	for i := 0; i < n/8; i++ {
		reqs = append(reqs, Request{Op: OpDelete, Key: core.Key(i)})
	}
	res = make([]Result, len(reqs))
	if err := s.Do(reqs, res); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadTap(t *testing.T) {
	s, err := New(Config{
		Shards: 4, Build: buildSkiplist,
		Workload: &WorkloadConfig{WindowOps: 64, Keep: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	driveMix(t, s, n)
	if got := s.RangeScan(0, core.Key(n), func(core.Key, core.Value) bool { return true }); got == 0 {
		t.Fatal("scan returned nothing")
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateWorkload(reports)
	if agg == nil {
		t.Fatal("no workload snapshot in reports")
	}
	want := map[Op]uint64{
		OpGet: n, OpInsert: n, OpUpdate: n / 4, OpDelete: n / 8,
	}
	for op, w := range want {
		if agg.Cum[op] != w {
			t.Fatalf("%v: cum %d, want %d", op, agg.Cum[op], w)
		}
	}
	if agg.Cum[workload.OpScan] != 4 {
		t.Fatalf("scan cum %d, want 4 (one per shard)", agg.Cum[workload.OpScan])
	}
	if agg.CumScanRows == nil || agg.CumScanRows.Count() != 4 {
		t.Fatal("scan-length histogram not recorded")
	}
	// Every shard rotated its final partial window at shutdown, so the
	// merged last fingerprint exists and sees the hot get keys.
	if agg.Last == nil {
		t.Fatal("no merged last fingerprint")
	}
	if agg.Windows == 0 {
		t.Fatal("no windows completed")
	}
	// The fingerprint ledger must agree with the serving ledger.
	var ops uint64
	for _, r := range reports {
		ops += r.Ops
	}
	var cum uint64
	for _, c := range agg.Cum {
		cum += c
	}
	if scans := agg.Cum[workload.OpScan]; cum-scans != ops {
		t.Fatalf("fingerprinted point ops %d != served ops %d", cum-scans, ops)
	}
}

func TestWorkloadLiveSnapshotAndDrift(t *testing.T) {
	s, err := New(Config{
		Shards: 1, Build: buildSkiplist,
		Workload: &WorkloadConfig{WindowOps: 128, Keep: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	driveMix(t, s, 256)
	reports, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := reports[0].Workload
	if w == nil || w.Windows == 0 {
		t.Fatalf("live snapshot carries no workload windows: %+v", w)
	}
	// driveMix's phases (pure insert → read-heavy) are a drift the recorder
	// must have latched by now.
	if w.DriftCount == 0 {
		t.Fatal("insert→read phase change latched no drift event")
	}
}

func TestWorkloadDisabledReportsNil(t *testing.T) {
	s, err := New(Config{Shards: 2, Build: buildSkiplist})
	if err != nil {
		t.Fatal(err)
	}
	driveMix(t, s, 64)
	reports, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Workload != nil {
			t.Fatalf("shard %d carries a workload snapshot with fingerprinting off", r.Shard)
		}
	}
	if AggregateWorkload(reports) != nil {
		t.Fatal("aggregate of nil snapshots is not nil")
	}
}

// benchDoWorkload mirrors benchDo with fingerprinting toggled instead of
// tracing.
func benchDoWorkload(b *testing.B, wc *WorkloadConfig) {
	s, err := New(Config{Shards: 4, Build: buildSkiplist, Workload: wc})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	const batch = 256
	reqs := make([]Request, batch)
	res := make([]Result, batch)
	for i := range reqs {
		reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j].Op = OpGet
		}
		if err := s.Do(reqs, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoFingerprinted is BenchmarkDo's twin with fingerprinting on;
// comparing the pair's allocs/op pins the claim that the disabled path is
// allocation-identical and bounds the fingerprinted path's overhead.
func BenchmarkDoFingerprinted(b *testing.B) {
	benchDoWorkload(b, &WorkloadConfig{WindowOps: 4096})
}
