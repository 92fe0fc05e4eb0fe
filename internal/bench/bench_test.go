package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/storage"
)

// tiny is the fast configuration used by the experiment tests; the real
// sizes run in the repository-root benchmarks.
var tiny = Config{Seed: 1, N: 4096, Ops: 2000}

func TestProps(t *testing.T) {
	res := RunProps(tiny)
	if len(res.Results) != 3 {
		t.Fatalf("%d propositions", len(res.Results))
	}
	for _, p := range res.Results {
		if !p.Holds {
			t.Fatalf("Prop %d violated: %s", p.Prop, p.Detail)
		}
	}
	if !strings.Contains(res.Render(), "HOLDS") {
		t.Fatal("render")
	}
}

// CellsOf returns the rows for one method across every N (scaling checks).
func (r Table1Result) CellsOf(method string) []Table1Row {
	var out []Table1Row
	for _, row := range r.Rows {
		if row.Method == method {
			out = append(out, row)
		}
	}
	return out
}

func TestTable1(t *testing.T) {
	res := RunTable1(tiny, []int{1 << 11, 1 << 13}, 64)
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	w := res.Winners()

	// The paper's winner claims among the four access methods.
	if w["index_size"] != "zonemap" {
		t.Fatalf("index_size winner %q, want zonemap", w["index_size"])
	}
	if w["insert"] != "lsm-level" {
		t.Fatalf("insert winner %q, want lsm-level", w["insert"])
	}
	// Point and range queries go to a tree or hash structure, never to the
	// scan-bound sparse index.
	if w["point_query"] == "zonemap" || w["range_query"] == "zonemap" {
		t.Fatalf("zonemap won a query column: %v", w)
	}

	// No single winner across all columns.
	distinct := map[string]bool{}
	for _, v := range w {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("a single method won everything: %v", w)
	}

	// Scaling shapes per method across N.
	for _, method := range []string{"btree", "hash", "zonemap", "lsm-level", "sorted-column", "unsorted-column"} {
		cells := res.CellsOf(method)
		if len(cells) != 2 {
			t.Fatalf("%s: %d cells", method, len(cells))
		}
	}
	// Unsorted column: point cost linear in N (4x data → ~4x reads).
	u := res.CellsOf("unsorted-column")
	if u[1].PointRead < u[0].PointRead*2 {
		t.Fatalf("unsorted point cost not linear: %v -> %v", u[0].PointRead, u[1].PointRead)
	}
	// Hash: point cost flat in N.
	h := res.CellsOf("hash")
	if h[1].PointRead > h[0].PointRead*2 {
		t.Fatalf("hash point cost grew: %v -> %v", h[0].PointRead, h[1].PointRead)
	}
	// Sorted column: insert cost linear in N.
	s := res.CellsOf("sorted-column")
	if s[1].InsertCost < s[0].InsertCost*2 {
		t.Fatalf("sorted insert cost not linear: %v -> %v", s[0].InsertCost, s[1].InsertCost)
	}
	if !strings.Contains(res.Render(), "no single winner") {
		t.Fatal("render")
	}
}

func TestFig1(t *testing.T) {
	// Fig-1 placement needs N well above the LSM memtable (1024 records),
	// or the memtable legitimately makes the LSM the cheapest reader.
	res := RunFig1(Config{Seed: 1, N: 8192, Ops: 4000})
	if len(res.Profiles) < 10 {
		t.Fatalf("%d profiles", len(res.Profiles))
	}
	if res.ChecksOK != len(res.Checks) {
		for _, c := range res.Checks {
			if !c.Holds {
				t.Errorf("ordering failed: %s(%s)=%.1f !< %s(%s)=%.1f", c.Dim, c.A, c.ValA, c.Dim, c.B, c.ValB)
			}
		}
		t.Fatalf("%d/%d orderings hold", res.ChecksOK, len(res.Checks))
	}
	// The flagship corners must classify correctly even at small N.
	corner := map[string]string{}
	for i, p := range res.Profiles {
		corner[p.Name] = res.Corners[i].String()
	}
	if corner["btree"] != "read-optimized" {
		t.Fatalf("btree classified %s", corner["btree"])
	}
	if corner["lsm-tier"] == "read-optimized" {
		t.Fatalf("lsm-tier classified %s", corner["lsm-tier"])
	}
	out := res.Render()
	if !strings.Contains(out, "Read Optimized") || !strings.Contains(out, "orderings hold") {
		t.Fatal("render")
	}
}

// TestProfileCatalog: profiles come back in names order under their row
// names, and a run with bad rows returns one *SuiteError naming each of them
// after the good rows have run.
func TestProfileCatalog(t *testing.T) {
	cfg := Config{Seed: 1, N: 512, Ops: 200, Runner: NewRunner(4)}
	profs, err := ProfileCatalog(cfg, "calib", []string{"hash", "btree"}, Fig1Mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 || profs[0].Name != "hash" || profs[1].Name != "btree" {
		t.Fatalf("profiles %+v, want hash then btree", profs)
	}
	_, err = ProfileCatalog(cfg, "calib", []string{"btree", "no-such", "hash", "also-missing"}, Fig1Mix)
	se, ok := err.(*SuiteError)
	if !ok {
		t.Fatalf("err = %T %v, want *SuiteError", err, err)
	}
	if se.Exp != "calib" || len(se.Cells) != 2 || se.Cells[0].Label != "no-such" || se.Cells[1].Label != "also-missing" {
		t.Fatalf("SuiteError = %v", se)
	}
}

// TestFig2: on each structure a bigger pool costs more space at level n−1
// and leaves fewer device reads at level n. Only the B+-tree's write-backs
// must fall: it updates pages in place, so a bigger pool absorbs repeated
// updates to a hot page, while the LSM's device writes are its memtable
// flushes, which no pool size changes (at this size they are equal at every
// point).
func TestFig2(t *testing.T) {
	res := RunFig2(tiny)
	if len(res.Sweeps) != 2 {
		t.Fatalf("%d sweeps, want btree and lsm-level", len(res.Sweeps))
	}
	for _, s := range res.Sweeps {
		if len(s.Points) < 4 {
			t.Fatalf("%s: %d points", s.Method, len(s.Points))
		}
		if !s.Monotone {
			t.Fatalf("%s: figure-2 interaction not monotone: %+v", s.Method, s.Points)
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.MO <= first.MO {
			t.Fatalf("%s: MO did not grow along the sweep", s.Method)
		}
		if last.RO >= first.RO {
			t.Fatalf("%s: disk reads did not fall along the sweep", s.Method)
		}
		switch s.Method {
		case "btree":
			if last.UO >= first.UO {
				t.Fatalf("btree: write-backs did not fall along the sweep: %v -> %v", first.UO, last.UO)
			}
		default:
			if last.UO > first.UO {
				t.Fatalf("%s: write-backs rose along the sweep: %v -> %v", s.Method, first.UO, last.UO)
			}
		}
	}
	if out := res.Render(); strings.Count(out, "Monotone") != 2 {
		t.Fatalf("render:\n%s", out)
	}
}

// TestFig2ReachesStorageHook: fig2's cells build their stacks with the
// run's observer as the storage hook, so an observed run measures the same
// points, and the observer's merged ledger is exactly the sum of the cells'
// device ledgers.
func TestFig2ReachesStorageHook(t *testing.T) {
	quiet := RunFig2(tiny)
	o := obs.New(obs.Config{})
	cfg := tiny
	cfg.Obs = o
	traced := RunFig2(cfg)
	if !reflect.DeepEqual(quiet, traced) {
		t.Fatalf("observing changed the points:\n%+v\n%+v", quiet, traced)
	}
	var dev storage.DeviceStats
	for _, s := range traced.Sweeps {
		for _, p := range s.Points {
			dev.PageReads += p.dev.PageReads
			dev.PageWrites += p.dev.PageWrites
			dev.CostUnits += p.dev.CostUnits
			dev.Batches += p.dev.Batches
			dev.BatchedPages += p.dev.BatchedPages
		}
	}
	if dev.PageReads == 0 || dev.PageWrites == 0 {
		t.Fatalf("the cells moved no pages: %+v", dev)
	}
	tot := o.Totals()
	if tot.Reads() != dev.PageReads || tot.Writes() != dev.PageWrites {
		t.Fatalf("observed traffic r=%d w=%d != devices r=%d w=%d", tot.Reads(), tot.Writes(), dev.PageReads, dev.PageWrites)
	}
	if tot.Cost != dev.CostUnits {
		t.Fatalf("observed cost %d != device cost units %d", tot.Cost, dev.CostUnits)
	}
	if tot.Batches != dev.Batches || tot.BatchedPages != dev.BatchedPages {
		t.Fatalf("observed batches %d/%d != devices %d/%d", tot.Batches, tot.BatchedPages, dev.Batches, dev.BatchedPages)
	}
}

func TestFig3(t *testing.T) {
	res := RunFig3(Config{Seed: 1, N: 2048, Ops: 1200})
	if len(res.Families) < 5 {
		t.Fatalf("%d families", len(res.Families))
	}
	for _, fam := range res.Families {
		if len(fam.Points) < 2 {
			t.Fatalf("%s: %d configs", fam.Name, len(fam.Points))
		}
		// Tunability: the family must move through RUM space, covering a
		// nonzero span in at least one dimension...
		if fam.SpreadR+fam.SpreadU+fam.SpreadM < 0.2 {
			t.Fatalf("%s is a point, not an area: spreads %v %v %v", fam.Name, fam.SpreadR, fam.SpreadU, fam.SpreadM)
		}
		// ...and per the conjecture, no configuration dominates the family.
		if fam.FrontierSize < 2 {
			t.Fatalf("%s has a dominant configuration (frontier %d)", fam.Name, fam.FrontierSize)
		}
	}
	if !strings.Contains(res.Render(), "Pareto frontier") {
		t.Fatal("render")
	}
}

func TestConjecture(t *testing.T) {
	res := RunConjecture(Config{Seed: 1, N: 2048, Ops: 1200})
	if res.Dominant {
		t.Fatal("a single configuration dominated the whole grid — the conjecture's premise failed")
	}
	if res.Frontier < 3 {
		t.Fatalf("Pareto frontier %d too small", res.Frontier)
	}
	for _, tbl := range res.Tables {
		if !tbl.Monotone {
			t.Fatalf("cap table %s×%s→%s not monotone", tbl.DimA, tbl.DimB, tbl.DimC)
		}
		// The floor under the tightest caps must be at least the
		// unconstrained best (equality allowed, usually strictly worse).
		tight := tbl.Cells[0][0].Best
		if tight < tbl.GlobalBest-1e-9 {
			t.Fatalf("tight caps improved %s: %v < %v", tbl.DimC, tight, tbl.GlobalBest)
		}
	}
	if !strings.Contains(res.Render(), "RUM Conjecture") {
		t.Fatal("render")
	}
}

func TestAdaptive(t *testing.T) {
	res := RunAdaptive(tiny)
	if len(res.CrackSteps) != 10 {
		t.Fatalf("%d crack steps", len(res.CrackSteps))
	}
	if !res.Converged {
		t.Fatalf("cracking did not converge: first %.3f last %.3f of column per query",
			res.FirstOverN, res.LastOverN)
	}
	// Per-decile read cost must be (weakly) decreasing overall.
	first := res.CrackSteps[0].AvgRead
	last := res.CrackSteps[len(res.CrackSteps)-1].AvgRead
	if last >= first {
		t.Fatal("crack read cost did not fall")
	}
	if len(res.Phases) != 3 {
		t.Fatalf("%d phases", len(res.Phases))
	}
	// The paper's shape: the read-heavy phase is served from the B-tree it
	// started as, the write-heavy one ends on the LSM.
	if p := res.Phases[0]; p.Flavor != "btree" || p.Migrated != 0 {
		t.Fatalf("read-heavy phase ended on %s after %d migrations, want btree and 0", p.Flavor, p.Migrated)
	}
	if p := res.Phases[1]; p.Flavor != "lsm" {
		t.Fatalf("write-heavy phase ended on %s, want lsm", p.Flavor)
	}
	if res.Migrations == 0 {
		t.Fatal("morphing engine never changed shape across contrasting phases")
	}
	if !strings.Contains(res.Render(), "cracking") {
		t.Fatal("render")
	}
}

func TestRenderTriangleManyPoints(t *testing.T) {
	// Regression: more points than letters must not hang.
	pts := make([]NamedPoint, 40)
	for i := range pts {
		pts[i] = NamedPoint{Label: "p", Point: rum.Point{R: 1 + float64(i), U: 2, M: 3}}
	}
	out := RenderTriangle(pts, 41)
	if !strings.Contains(out, "Read Optimized") {
		t.Fatal("render")
	}
}

func TestExtensions(t *testing.T) {
	res := RunExtensions(tiny)
	// Approximate indexing: the filters must prune the bulk of in-range
	// misses and read far less base data than the plain zone map.
	if res.FilterSkipRate < 0.8 {
		t.Fatalf("filters pruned only %.0f%% of misses", res.FilterSkipRate*100)
	}
	if res.ApproxMissRead*3 > res.ZonemapMissRead {
		t.Fatalf("approx miss reads %d not well below zonemap %d", res.ApproxMissRead, res.ZonemapMissRead)
	}
	if res.ApproxMO <= res.ZonemapMO {
		t.Fatal("filters must cost space")
	}
	// Differential structures write fewer pages than the in-place tree.
	if res.PBTWrites >= res.BTreeWrites {
		t.Fatalf("pbt writes %d not below btree %d", res.PBTWrites, res.BTreeWrites)
	}
	if res.LSMWrites >= res.BTreeWrites {
		t.Fatalf("lsm writes %d not below btree %d", res.LSMWrites, res.BTreeWrites)
	}
	// Cache-oblivious layout touches fewer lines but stores more.
	if res.VEBLines >= res.BinaryLines {
		t.Fatalf("vEB lines %.2f not below binary %.2f", res.VEBLines, res.BinaryLines)
	}
	if res.VEBMO <= 1.5 {
		t.Fatalf("vEB MO %.2f suspiciously low", res.VEBMO)
	}
	if !strings.Contains(res.Render(), "Cache-oblivious") {
		t.Fatal("render")
	}
}

func TestChaos(t *testing.T) {
	plan := faults.Plan{Seed: 9, PRead: 0.02, PWrite: 0.02, PTorn: 0.5}
	res := RunChaos(tiny, plan)
	if len(res.Rows) != 3 {
		t.Fatalf("%d chaos rows", len(res.Rows))
	}
	var transients, retries uint64
	for _, row := range res.Rows {
		if row.Clean.R <= 0 || row.Clean.U <= 0 {
			t.Fatalf("%s: degenerate clean point %+v", row.Method, row.Clean)
		}
		if row.Degraded.R <= 0 || row.Degraded.U <= 0 {
			t.Fatalf("%s: degenerate degraded point %+v", row.Method, row.Degraded)
		}
		if row.Crash.Verdict == faults.Violated {
			t.Fatalf("%s: crash trial violated its %s contract: %s",
				row.Method, row.Durability, row.Crash)
		}
		transients += row.Faults.TransientReads + row.Faults.TransientWrites
		retries += row.Pool.Retries
	}
	if transients == 0 {
		t.Fatal("plan injected no transient faults — nothing was degraded")
	}
	if retries == 0 {
		t.Fatal("pool recorded no retries under an active fault plan")
	}
	if out := res.Render(); !strings.Contains(out, "Crash trial") {
		t.Fatal("render")
	}
}

// TestChaosDefaultPlan: an inactive plan must be replaced by the default
// degradation profile, not run a no-op chaos experiment.
func TestChaosDefaultPlan(t *testing.T) {
	res := RunChaos(tiny, faults.Plan{})
	if !res.Plan.Active() {
		t.Fatal("inactive plan was not defaulted")
	}
	if res.Plan.Seed != uint64(tiny.Seed) {
		t.Fatalf("default plan seed %d, want %d", res.Plan.Seed, tiny.Seed)
	}
}
