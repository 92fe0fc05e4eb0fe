package methods

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/workload"
)

// semantics captures the per-structure relaxations documented in the
// packages, so one contract test can drive every catalog entry.
type semantics struct {
	blindWrites bool // LSM: Insert never rejects, Update/Delete return true
	lossyValues bool // bitmap: values stored modulo cardinality
	card        uint64
}

func catalogSemantics(name string) semantics {
	switch name {
	case "lsm-level", "lsm-tier":
		return semantics{blindWrites: true}
	case "bitmap":
		return semantics{lossyValues: true, card: 16}
	default:
		return semantics{}
	}
}

// TestCatalogContract drives every catalog structure with the same random
// operation stream and cross-checks against a reference map, honoring each
// structure's documented semantics.
func TestCatalogContract(t *testing.T) {
	opt := Options{PageSize: 512, PoolPages: 16}
	for _, spec := range Catalog(opt) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			sem := catalogSemantics(spec.Name)
			am := spec.New()
			rng := rand.New(rand.NewSource(42))
			ref := map[uint64]uint64{}
			val := func() uint64 {
				v := rng.Uint64() >> 1
				if sem.lossyValues {
					v %= sem.card
				}
				return v
			}
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(1200))
				switch rng.Intn(5) {
				case 0: // insert
					v := val()
					if _, exists := ref[k]; exists {
						if sem.blindWrites {
							continue // blind stores treat this as overwrite; skip
						}
						if err := am.Insert(k, v); err != core.ErrKeyExists {
							t.Fatalf("op %d: dup insert err=%v", i, err)
						}
					} else {
						if err := am.Insert(k, v); err != nil {
							t.Fatalf("op %d: insert: %v", i, err)
						}
						ref[k] = v
					}
				case 1: // get
					v, ok := am.Get(k)
					rv, rok := ref[k]
					if ok != rok || (ok && v != rv) {
						t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
					}
				case 2: // update live keys only (blind stores require it)
					if _, ok := ref[k]; !ok {
						continue
					}
					v := val()
					if !am.Update(k, v) {
						t.Fatalf("op %d: update of live key failed", i)
					}
					ref[k] = v
				case 3: // delete live keys only
					if _, ok := ref[k]; !ok {
						continue
					}
					if !am.Delete(k) {
						t.Fatalf("op %d: delete of live key failed", i)
					}
					delete(ref, k)
				case 4: // range
					lo := uint64(rng.Intn(1200))
					hi := lo + uint64(rng.Intn(200))
					want := 0
					for rk := range ref {
						if rk >= lo && rk <= hi {
							want++
						}
					}
					got := am.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
						if rv, ok := ref[k]; !ok || rv != v {
							t.Fatalf("op %d: scan saw %d=%d", i, k, v)
						}
						return true
					})
					if got != want {
						t.Fatalf("op %d: range [%d,%d] emitted %d want %d", i, lo, hi, got, want)
					}
				}
				if am.Len() != len(ref) {
					t.Fatalf("op %d: Len %d want %d", i, am.Len(), len(ref))
				}
			}
			// Final sanity: flush and re-check a sample.
			am.Flush()
			for k, v := range ref {
				got, ok := am.Get(k)
				if !ok || got != v {
					t.Fatalf("final Get(%d) = %d,%v want %d", k, got, ok, v)
				}
				break
			}
			if am.Size().Total() == 0 && len(ref) > 0 {
				t.Fatal("zero size with live data")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	opt := Options{}
	if _, err := Lookup(opt, "btree"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(opt, "nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog(Options{}) {
		if seen[s.Name] {
			t.Fatalf("duplicate catalog name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Open == nil {
			t.Fatalf("%s: nil constructor", s.Name)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("catalog too small: %d", len(seen))
	}
}

func TestFlavorsRunnable(t *testing.T) {
	opt := Options{PageSize: 512, PoolPages: 8}
	flavors := Flavors(opt)
	if len(flavors) < 2 {
		t.Fatalf("flavors: %d", len(flavors))
	}
	for _, f := range flavors {
		am := f.New(nil)
		if err := am.Insert(1, 2); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if v, ok := am.Get(1); !ok || v != 2 {
			t.Fatalf("%s: get", f.Name)
		}
		if _, ok := model.Lookup(f.Config.Method); !ok {
			t.Fatalf("%s: flavor config %+v names no priced method", f.Name, f.Config)
		}
	}
}

// The flavors' model costs (lower is better, where the old Score closures
// were higher-is-better) steer the engine on the default substrate, holding a
// store four times its pool. The zone map's line went with the flavor.
func TestFlavorScoresSteerCorrectly(t *testing.T) {
	flavors := Flavors(Options{})
	on := Options{}.Model(1 << 16)
	cost := map[string]func(workload.Mix) float64{}
	for _, f := range flavors {
		cost[f.Name] = func(m workload.Mix) float64 {
			tr := model.Traffic{Mix: m}
			return f.Config.Price(tr, on).Cost(tr)
		}
	}
	if cost["lsm"](workload.WriteHeavy) >= cost["btree"](workload.WriteHeavy) {
		t.Fatal("write-heavy should favor lsm")
	}
	if cost["btree"](workload.ReadHeavy) >= cost["lsm"](workload.ReadHeavy) {
		t.Fatal("read-heavy should favor btree")
	}
}

// TestCatalogCrashContracts holds every catalog row to the contract it
// declares, under the Options that change a row's recovery story: plain,
// behind the write-ahead log at per-op and group commit (with the catalog's
// own checkpoint interval), and with snapshot versions. A row with a Reopen
// must recover on some seed and never violate its floor; a row without one
// may only declare Lossy. -short trims the seeds for the racecheck build,
// whose frame assertions make each trial a few hundred times slower.
func TestCatalogCrashContracts(t *testing.T) {
	seeds := uint64(20)
	if testing.Short() {
		seeds = 4
	}
	base := Options{PageSize: 512, PoolPages: 16}
	walAt := func(batch int) Options { o := base; o.WAL, o.CommitBatch = true, batch; return o }
	versions := base
	versions.Versions = 2
	for _, c := range []struct {
		name string
		opt  Options
	}{{"plain", base}, {"wal/b=1", walAt(1)}, {"wal/b=8", walAt(8)}, {"versions=2", versions}} {
		for _, spec := range Catalog(c.opt) {
			t.Run(c.name+"/"+spec.Name, func(t *testing.T) {
				if spec.Reopen == nil {
					if spec.Durability != faults.Lossy {
						t.Fatalf("no recovery path, yet declares %s", spec.Durability)
					}
					return
				}
				recovered := 0
				for seed := uint64(1); seed <= seeds; seed++ {
					res := faults.CheckCrash(faults.CheckConfig{Seed: seed, Ops: 1500}, spec.Subject)
					switch {
					case !res.Verdict.Acceptable():
						t.Fatalf("seed %d (%s): %s", seed, spec.Durability, res)
					case res.Verdict != faults.Recovered:
						continue
					}
					recovered++
					if c.opt.WAL && c.opt.CommitBatch == 1 && (res.Committed != res.Acked || res.Survived != res.Keys) {
						t.Fatalf("seed %d: per-op commits must keep every acknowledged op: %s", seed, res)
					}
				}
				if recovered == 0 {
					t.Fatal("no seed recovered — recovery path never validated")
				}
			})
		}
	}
}
