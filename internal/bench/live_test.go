package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Every shard's storage-event ledger must reconcile with that shard's own
// meter — the hook and the device charge the same transfers on the same
// goroutine — and the merged ledger a telemetry point carries must be the
// exact sum of the shards', fault path included.
func TestLiveRunLedgerPerShard(t *testing.T) {
	plan, err := faults.ParsePlan("seed=7,p_read=0.01,p_write=0.01,p_torn=0.5")
	if err != nil {
		t.Fatal(err)
	}
	streams := makeServeStreams(7, 32768, 4000, 4)
	var init []core.Record
	sources := make([]BatchSource, len(streams))
	for c := range streams {
		init = append(init, streams[c].init...)
		sources[c] = streams[c].source()
	}
	opt := methods.Options{PoolPages: 8, Medium: storage.MQSSD, Faults: plan}
	run, err := StartLive(LiveConfig{Method: "btree", Storage: opt, Shards: 3, Batch: 32},
		MergeRecords(init), sources, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := run.Sample(); p == nil || len(p.Shards) != 3 {
		t.Fatalf("mid-run Sample = %+v, want a 3-shard point", p)
	}
	run.Wait()
	reports, err := run.Server.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sum obs.PageCounts
	for _, rep := range reports {
		c := rep.Phases.Pages
		if got, want := c.Reads()*4096, rep.Meter.PhysicalRead(); got != want || got == 0 {
			t.Errorf("shard %d: ledger reads %d bytes, meter %d", rep.Shard, got, want)
		}
		if got, want := c.Writes()*4096, rep.Meter.PhysicalWritten(); got != want || got == 0 {
			t.Errorf("shard %d: ledger wrote %d bytes, meter %d", rep.Shard, got, want)
		}
		sum.Merge(c)
	}
	if merged := serve.AggregatePhases(reports).Pages; merged != sum {
		t.Errorf("merged ledger %+v is not the sum of the shards' %+v", merged, sum)
	}
	if sum.Faults == 0 || sum.TornWrites == 0 {
		t.Errorf("fault plan injected nothing (%+v): the check is vacuous", sum)
	}
	// The final point's ledger only grows past the quiesced snapshot (the
	// stop-time flush), and the faulted run must not verify.
	row, final, _ := run.Stop(0)
	if got := final.Phases.Pages; got.Reads() < sum.Reads() || got.Faults < sum.Faults {
		t.Errorf("final ledger %+v fell behind the snapshot %+v", got, sum)
	}
	if row.Verified || row.Mismatches == 0 {
		t.Errorf("a run with failing ops verified: %+v", row)
	}
}

// A mix with range scans goes through the one client loop: every scan is a
// barrier behind its client's batch, and every row count holds against the
// generator's model — across clients (namespaces keep their scans apart) and
// shards (a scan is a broadcast).
func TestLiveRunScanBarriers(t *testing.T) {
	mix, err := ParseServeMix("get=0.5,insert=0.15,update=0.1,delete=0.05,scan=0.2,scanrows=32")
	if err != nil {
		t.Fatal(err)
	}
	const perClient = 1500
	gens := []*StreamGen{NewStreamGen(11, 0, mix), NewStreamGen(11, 1, mix)}
	var init []core.Record
	sources := make([]BatchSource, len(gens))
	scans, rows := make([]int, len(gens)), make([]int, len(gens))
	for c, g := range gens {
		init = append(init, g.InitRecords(512)...)
		left := perClient
		sources[c] = func(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
			n, scan := g.Fill(reqs[:min(len(reqs), left)], want)
			left -= n
			if scan.Scan {
				left--
				scans[c]++
				rows[c] += scan.WantRows
			}
			return n, scan
		}
	}
	run, err := StartLive(LiveConfig{Method: "btree", Storage: methods.Options{PoolPages: 8}, Shards: 2, Batch: 16},
		MergeRecords(init), sources, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Wait()
	row, _, err := run.Stop(gens[0].Live() + gens[1].Live())
	if err != nil {
		t.Fatal(err)
	}
	if !row.Verified || row.Mismatches != 0 {
		t.Errorf("scan-carrying run not verified: %+v", row)
	}
	if row.Requests != len(gens)*perClient {
		t.Errorf("run carried %d requests, want %d (scans count)", row.Requests, len(gens)*perClient)
	}
	for c := range gens {
		if scans[c] < perClient/10 || rows[c] == 0 {
			t.Errorf("client %d: %d scans expecting %d rows: the check is vacuous", c, scans[c], rows[c])
		}
	}
}
