package bench

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"strings"
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
	opt := methods.Options{PoolPages: 8, Medium: storage.MQSSD, Faults: plan}
	run, err := StartLive(LiveConfig{Method: "btree", Storage: opt, Shards: 3, Batch: 32},
		serveStreams(7, 4, 1000), 8192, 0, nil)
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
	row, final, _ := run.Stop()
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
	gens := []*scanCounter{{bounded: bounded{NewStreamGen(11, 0, mix), perClient}}, {bounded: bounded{NewStreamGen(11, 1, mix), perClient}}}
	run, err := StartLive(LiveConfig{Method: "btree", Storage: methods.Options{PoolPages: 8}, Shards: 2, Batch: 16},
		[]Stream{gens[0], gens[1]}, 512, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := run.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !row.Verified || row.Mismatches != 0 {
		t.Errorf("scan-carrying run not verified: %+v", row)
	}
	if row.Requests != len(gens)*perClient {
		t.Errorf("run carried %d requests, want %d (scans count)", row.Requests, len(gens)*perClient)
	}
	if want := gens[0].Live() + gens[1].Live(); row.FinalLen != want {
		t.Errorf("row expects %d records, the streams leave %d live", row.FinalLen, want)
	}
	for c, g := range gens {
		if g.scans < perClient/10 || g.rows == 0 {
			t.Errorf("client %d: %d scans expecting %d rows: the check is vacuous", c, g.scans, g.rows)
		}
	}
}

// scanCounter is a bounded stream that tallies the scans it hands out.
type scanCounter struct {
	bounded
	scans, rows int
}

func (s *scanCounter) Fill(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
	n, scan := s.bounded.Fill(reqs, want)
	if scan.Scan {
		s.scans++
		s.rows += scan.WantRows
	}
	return n, scan
}

// serveCase is one generated serving configuration: a catalog method on a
// drawn substrate, durability or snapshot mode, server shape and client
// streams.
type serveCase struct {
	method                 string
	opt                    methods.Options
	staleness              int
	shards, batch, clients int
	mix                    string
	dist                   string
	workload               bool
}

func (c serveCase) String() string {
	return fmt.Sprintf("method=%s medium=%s page=%d pool=%d wal=%v commit=%d versions=%d staleness=%d shards=%d batch=%d clients=%d mix=%s dist=%s workload=%v",
		c.method, c.opt.Medium, c.opt.PageSize, c.opt.PoolPages, c.opt.WAL, c.opt.CommitBatch, c.opt.Versions, c.staleness,
		c.shards, c.batch, c.clients, c.mix, c.dist, c.workload)
}

// drawServeCase draws seed's case. bitmap is left out: it stores values
// modulo its cardinality, so no stream's predictions hold for it.
func drawServeCase(seed uint64) serveCase {
	rng := rand.New(rand.NewPCG(seed, 0xca5e))
	pick := func(n int) int { return rng.IntN(n) }
	var names []string
	for _, s := range methods.Catalog(methods.Options{}) {
		if s.Name != "bitmap" {
			names = append(names, s.Name)
		}
	}
	c := serveCase{
		method: names[pick(len(names))],
		opt: methods.Options{
			Medium:    []storage.Medium{storage.RAM, storage.SSD, storage.HDD, storage.MQSSD}[pick(4)],
			PageSize:  []int{512, 1024, 4096}[pick(3)],
			PoolPages: []int{8, 12, 64, 1 << 12}[pick(4)], // the last holds every case resident
		},
		shards:   1 + pick(4),
		batch:    []int{1, 7, 64}[pick(3)],
		clients:  1 + pick(3),
		mix:      []string{"", "read90", "get=0.5,insert=0.15,update=0.1,delete=0.05,scan=0.2,scanrows=32"}[pick(3)],
		dist:     []string{"uniform", "zipf:1.1", "hotspot:90/10"}[pick(3)],
		workload: pick(2) == 0,
	}
	// The loggable and snapshot-capable structures, Options.WAL and Versions.
	if c.method == "btree" || strings.HasPrefix(c.method, "lsm-") {
		switch pick(3) {
		case 1:
			c.opt.WAL, c.opt.CommitBatch = true, []int{1, 8, 64}[pick(3)]
		case 2:
			c.opt.Versions, c.staleness = 3, []int{0, 1, 16, 256}[pick(4)]
		}
	}
	return c
}

// run serves the case's streams and returns what went wrong, "" for nothing:
// the run must verify, and once flushed a full scan must return exactly the
// records the streams' models hold.
func (c serveCase) run(seed uint64) string {
	mix, err := ParseServeMix(c.mix)
	if err != nil {
		return err.Error()
	}
	dist, err := ParseKeyDist(c.dist)
	if err != nil {
		return err.Error()
	}
	streams := make([]Stream, c.clients)
	for i := range streams {
		if c.staleness > 1 { // reads exact off a stale snapshot
			streams[i] = NewStableReadGen(int64(seed), i, c.clients, mix, dist, 400)
		} else {
			streams[i] = &bounded{NewStreamGenDist(int64(seed), i, mix, dist), 400}
		}
	}
	lc := LiveConfig{Method: c.method, Storage: c.opt, Shards: c.shards, Batch: c.batch, Staleness: c.staleness}
	if c.workload {
		lc.Workload = &serve.WorkloadConfig{WindowOps: 128}
	}
	run, err := StartLive(lc, streams, 256, 0, nil)
	if err != nil {
		return err.Error()
	}
	run.Wait()
	want := map[core.Key]core.Value{}
	for _, s := range streams {
		var gens []*StreamGen
		switch s := s.(type) {
		case *bounded:
			gens = []*StreamGen{s.StreamGen}
		case *StableReadGen:
			gens = []*StreamGen{s.reader, s.writer}
		}
		for _, g := range gens {
			for i, k := range g.live {
				want[k] = g.vals[i]
			}
		}
	}
	got := map[core.Key]core.Value{}
	var problem string
	if err := run.Server.Flush(); err != nil { // under MVCC a scan reads the published snapshot
		problem = fmt.Sprintf("flush: %v", err)
	} else if rows := run.Server.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	}); rows != len(want) || !maps.Equal(got, want) {
		wrong := 0
		for k, v := range want {
			if w, ok := got[k]; !ok || w != v {
				wrong++
			}
		}
		problem = fmt.Sprintf("full scan returned %d rows; %d of the streams' %d live records missing or wrong", rows, wrong, len(want))
	}
	if row, _, err := run.Stop(); !row.Verified && problem == "" {
		problem = fmt.Sprintf("not verified: %d mismatches, err %v", row.Mismatches, err)
	}
	return problem
}

// TestGeneratedServeCases draws serving configurations from seeds — every
// catalog method but bitmap, on every medium, page size and pool regime,
// behind the log or with snapshot reads at every staleness, any server and
// client shape, point and scan mixes under every key distribution, the
// workload tap on or off — and holds each live run to its own verdict and
// to a map oracle over the streams' models. A failure prints the seed and
// the case on one line.
func TestGeneratedServeCases(t *testing.T) {
	cases := uint64(64)
	if testing.Short() {
		cases = 16
	}
	for seed := uint64(1); seed <= cases; seed++ {
		c := drawServeCase(seed)
		if problem := c.run(seed); problem != "" {
			t.Errorf("repro: seed=%d %v: %s", seed, c, problem)
		}
	}
}
