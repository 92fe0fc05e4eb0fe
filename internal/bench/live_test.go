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
