package methods

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/skiplist"
	"repro/internal/workload"
)

// shape is a test flavor: a skip list under the given name, priced as cfg.
func shape(name string, cfg model.Config) Flavor {
	return Flavor{
		Name:   name,
		New:    func(m *rum.Meter) core.AccessMethod { return skiplist.New(1, 0.5, m) },
		Config: cfg,
	}
}

func TestMorphingSwitchesShape(t *testing.T) {
	flavors := []Flavor{
		shape("reader", model.Config{Method: "btree", Fill: 1}),
		shape("writer", model.Config{Method: "lsm-tier", SizeRatio: 10, Buffer: 1024}),
	}
	// No pool: every B-tree page access reaches the device, so the model
	// prices writes dearer there than in the log-structured shape.
	cold := Options{}.Model(0)
	cold.PoolPages = 0
	eng, err := NewMorphing(flavors, 0, cold)
	if err != nil {
		t.Fatal(err)
	}
	if eng.CurrentFlavor() != "reader" {
		t.Fatal("start flavor")
	}
	// Read phase, three windows of it over the hundred keys to come (the
	// model sizes the store to the working set it is asked for): stays reader.
	for i := 0; i < 3*morphWindow; i++ {
		eng.Get(core.Key(i % 100))
	}
	if eng.CurrentFlavor() != "reader" || eng.Migrations() != 0 {
		t.Fatal("switched without cause")
	}
	// Write phase: must migrate to writer, once, keeping the data.
	for i := 0; i < 100; i++ {
		_ = eng.Insert(core.Key(i), core.Value(i))
	}
	for i := 0; i < 4*morphWindow; i++ {
		eng.Update(core.Key(i%100), 7)
	}
	if eng.CurrentFlavor() != "writer" {
		t.Fatalf("did not morph: %s", eng.CurrentFlavor())
	}
	if eng.Migrations() != 1 {
		t.Fatalf("migrations %d", eng.Migrations())
	}
	if eng.Len() != 100 {
		t.Fatalf("records lost in migration: %d", eng.Len())
	}
	for i := 0; i < 100; i++ {
		if v, ok := eng.Get(core.Key(i)); !ok || v != 7 {
			t.Fatalf("Get(%d) after migration = %d,%v", i, v, ok)
		}
	}
}

func TestMorphingValidation(t *testing.T) {
	if _, err := NewMorphing(nil, 0, Options{}.Model(0)); err == nil {
		t.Fatal("empty flavors accepted")
	}
	fl := []Flavor{shape("x", model.Config{Method: "skiplist"})}
	if _, err := NewMorphing(fl, 5, Options{}.Model(0)); err == nil {
		t.Fatal("bad start index accepted")
	}
}

func TestMorphingBulkLoad(t *testing.T) {
	eng, err := NewMorphing([]Flavor{shape("only", model.Config{Method: "skiplist"})}, 0, Options{}.Model(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad([]core.Record{{Key: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Get(1); !ok || v != 2 {
		t.Fatal("bulk load")
	}
	// The engine prices scans at the rows they return: each is recorded.
	eng.Insert(3, 4)
	for i := 0; i < 2; i++ {
		eng.RangeScan(0, ^core.Key(0), func(core.Key, core.Value) bool { return true })
	}
	s := eng.rec.Snapshot()
	if s.Cum[workload.OpScan] != 2 || s.CumScanRows.Sum() != 4 {
		t.Fatalf("recorded %d scans returning %.0f rows, want 2 and 4", s.Cum[workload.OpScan], s.CumScanRows.Sum())
	}
	if s.Cum[workload.OpGet] != 1 || s.Cum[workload.OpInsert] != 1 {
		t.Fatalf("recorded ops %v, want one get and one insert", s.Cum)
	}
}

// The advisor and the engine are one decider on one signal. One stream — a
// window of gets and updates over a preloaded store, the update share swept —
// goes to a WorkloadRecorder and to an engine over the standard flavors. For
// every share: the engine's recorder cut the same window; the traffic and
// substrate the engine priced (FingerprintStats.Priced) are the ones Advise
// priced, checked on the row both hold, the standard B-tree; and the engine
// left its B-tree exactly when the cheapest flavor undercut it by more than the
// hysteresis. The sweep must land on both sides of that line, including a
// cheaper LSM the engine rightly did not move to.
func TestMorphingDecidesWithTheAdvisor(t *testing.T) {
	const n = 1 << 14
	opt := Options{PoolPages: 8}
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i) << 20, Value: 1}
	}
	var stayedCheaper, moved int
	for step := 0; step <= 40; step++ {
		update := float64(step) / 40
		flavors := Flavors(opt)
		eng, err := NewMorphing(flavors, 0, opt.Model(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad(append([]core.Record(nil), recs...)); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewWorkloadRecorder(morphWindow, 1)
		rng := rand.New(rand.NewSource(int64(step)))
		for i := 0; i < morphWindow; i++ {
			k := recs[rng.Intn(n)].Key
			if rng.Float64() < update {
				eng.Update(k, 2)
				rec.RecordOp(workload.OpUpdate, k)
			} else {
				eng.Get(k)
				rec.RecordOp(workload.OpGet, k)
			}
		}
		fp := rec.Snapshot().Last
		if fp == nil || fp.Stats() != eng.rec.Last() {
			t.Fatalf("update share %.3f: the engine's window %+v is not the recorder's %+v", update, eng.rec.Last(), fp)
		}
		tr, on := fp.Stats().Priced(opt.Model(n))
		cost := func(f Flavor) float64 { return f.Config.Price(tr, on).Cost(tr) }
		adv := obs.Advise(fp, opt.Model(n), "btree")
		if adv.Current.Config != flavors[0].Config.String() || adv.Current.Cost != cost(flavors[0]) {
			t.Fatalf("update share %.3f: advisor prices %s at %v, the engine's reading at %v",
				update, adv.Current.Config, adv.Current.Cost, cost(flavors[0]))
		}
		btree, lsm := cost(flavors[0]), cost(flavors[1])
		wantMove := lsm < btree*(1-morphHysteresis)
		if got := eng.CurrentFlavor() == "lsm"; got != wantMove {
			t.Fatalf("update share %.3f: btree %.4f, lsm %.4f (saving %.1f%%): engine on %s",
				update, btree, lsm, 100*(1-lsm/btree), eng.CurrentFlavor())
		}
		switch {
		case wantMove:
			moved++
		case lsm < btree:
			stayedCheaper++
		}
	}
	if moved == 0 || stayedCheaper == 0 {
		t.Fatalf("sweep saw %d migrations and %d cheaper-but-within-hysteresis windows; want both", moved, stayedCheaper)
	}
}
