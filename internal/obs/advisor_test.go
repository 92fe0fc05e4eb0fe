package obs_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/methods"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The advisor's tests price on the catalog's real substrate (methods.Options),
// and methods imports obs for the morphing engine's recorder: an external test
// package, on exported API only, keeps that from being an import cycle.

func TestAdvisorPhases(t *testing.T) {
	mk := func(get, ins, upd, del, scan float64, keys int, zipf bool, rows int) *obs.Fingerprint {
		r := obs.NewWorkloadRecorder(4096, 4)
		rng := rand.New(rand.NewSource(11))
		var z *rand.Zipf
		if zipf {
			z = rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
		}
		for i := 0; i < 4096; i++ {
			k := uint64(rng.Intn(keys))
			if zipf {
				k = z.Uint64()
			}
			switch f := rng.Float64(); {
			case f < get:
				r.RecordOp(workload.OpGet, k)
			case f < get+ins:
				r.RecordOp(workload.OpInsert, k)
			case f < get+ins+upd:
				r.RecordOp(workload.OpUpdate, k)
			case f < get+ins+upd+del:
				r.RecordOp(workload.OpDelete, k)
			default:
				r.RecordScan(rows)
			}
		}
		r.Rotate()
		return r.Snapshot().Last
	}
	// The expectations are the calibration's rows (internal/model): on a pool
	// the data outgrows, the line-granular skip list is the cheapest seat for
	// ingest and for point serving, an LSM's packed runs for the scan storm;
	// the page-granular B-tree is best placed for none.
	const n = 1 << 15
	on := methods.Options{PoolPages: 8}.Model(n)
	advise := func(fp *obs.Fingerprint, current string) obs.Advice { return obs.Advise(fp, on, current) }
	ingest := advise(mk(0.15, 0.70, 0.10, 0.05, 0, n, false, 0), "btree")
	if ingest.Best.Config != "skiplist" {
		t.Fatalf("write-heavy ingest advised %q, want skiplist", ingest.Best.Config)
	}
	serve := advise(mk(0.90, 0.05, 0.05, 0, 0, n, true, 0), "btree")
	if serve.Best.Config != "skiplist" {
		t.Fatalf("point-read serving advised %q, want skiplist", serve.Best.Config)
	}
	storm := advise(mk(0.50, 0.05, 0.05, 0, 0.40, n, false, 512), "btree")
	if !strings.HasPrefix(storm.Best.Config, "lsm-") {
		t.Fatalf("scan storm advised %q, want an lsm", storm.Best.Config)
	}
	// Report-only sanity: the current row is priced, the delta is the gap,
	// and moving is recommended exactly when the best differs.
	if !storm.Moved() || storm.Delta <= 0 {
		t.Fatalf("scan storm on btree should recommend moving: %+v", storm)
	}
	if math.Abs(storm.Delta-(storm.Current.Cost-storm.Best.Cost)) > 1e-12 {
		t.Fatalf("delta %.4f ≠ current-best %.4f", storm.Delta, storm.Current.Cost-storm.Best.Cost)
	}
	if got := advise(mk(0.90, 0.05, 0.05, 0, 0, n, true, 0), "skiplist"); got.Moved() {
		t.Fatalf("already best placed but advised to move: %s", got.String())
	}
	if !strings.Contains(ingest.String(), "advisor: on btree") {
		t.Fatalf("report line: %q", ingest.String())
	}
}

// Every catalog method is either priced — and then maps to its own row by
// exact name — or named in model.NotPriced, for which the advisor still ranks
// the candidates but has no current row and no delta.
func TestAdvisorMapsEveryCatalogMethod(t *testing.T) {
	fp := &obs.Fingerprint{Window: 1, Ops: [workload.NumOps]uint64{100, 50, 25, 5, 0}}
	opt := methods.Options{}
	var names []string
	for _, spec := range methods.Catalog(opt) {
		names = append(names, spec.Name)
	}
	for _, m := range names {
		a := obs.Advise(fp, opt.Model(1<<14), m)
		if len(a.Ranked) == 0 || a.Best != a.Ranked[0] {
			t.Fatalf("method %q: ranked %d candidates, best %+v", m, len(a.Ranked), a.Best)
		}
		want, ok := model.Lookup(m)
		if ok == slices.Contains(model.NotPriced, m) {
			t.Fatalf("method %q: priced=%v, NotPriced=%v", m, ok, model.NotPriced)
		}
		if !ok {
			if a.Current != (obs.AdvisorChoice{Config: m}) || a.Delta != 0 || !strings.Contains(a.String(), m+" (not priced)") {
				t.Fatalf("method %q is not priced, yet current %+v delta %.2f: %s", m, a.Current, a.Delta, a)
			}
			continue
		}
		if a.Current.Config != want.String() {
			t.Fatalf("method %q mapped to current %q, want %q", m, a.Current.Config, want)
		}
		if !slices.ContainsFunc(a.Ranked, func(c obs.AdvisorChoice) bool { return c == a.Current }) {
			t.Fatalf("method %q: current row %q is not among the ranked candidates", m, a.Current.Config)
		}
	}
	for _, m := range []string{"lsm", "lsm-"} { // no alias, no prefix match
		if a := obs.Advise(fp, opt.Model(1<<14), m); a.Current.MO != 0 {
			t.Fatalf("%q resolved to a row: %+v", m, a.Current)
		}
	}
}
