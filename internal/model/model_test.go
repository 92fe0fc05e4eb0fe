package model

import (
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// Every candidate prices to finite, non-negative numbers at the edges: no
// pool, a near-empty structure, no traffic at all, a write-expensive medium.
func TestPriceIsFiniteAtTheEdges(t *testing.T) {
	traffics := []Traffic{
		{},
		{Mix: workload.Mix{Get: 1}, HotShare: 1},
		{Mix: workload.Mix{Insert: 1}},
		{Mix: workload.Mix{Get: 0.2, Scan: 0.3, Insert: 0.2, Update: 0.2, Delete: 0.1}, ScanRows: 1 << 20},
	}
	for _, pool := range []int{0, 1, 1 << 20} {
		for _, n := range []float64{0, 1, 1 << 10, 1 << 30} {
			p := Params{N: n, PageSize: 4096, RecordSize: 16, LineSize: 64, PoolPages: pool, Medium: storage.SMR.Model()}
			for _, tr := range traffics {
				for _, r := range Rank(tr, p, func(r Row) float64 { return r.Cost(tr) }) {
					for _, v := range []float64{r.RO, r.UO, r.ScanRO, r.MO, r.Cost(tr)} {
						if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
							t.Fatalf("%s at n=%g pool=%d under %+v: %+v", r.Config, n, pool, tr, r)
						}
					}
					if r.MO < 1 {
						t.Fatalf("%s: MO %.3f below 1", r.Config, r.MO)
					}
				}
			}
		}
	}
}

// A write-expensive medium raises the page writers' update cost and leaves
// the in-memory structures alone.
func TestMediumWeighsPageWrites(t *testing.T) {
	tr := Traffic{Mix: workload.Mix{Update: 1}}
	ram := Params{N: 1 << 20, PageSize: 4096, RecordSize: 16, LineSize: 64, PoolPages: 8, Medium: storage.RAM.Model()}
	ssd := ram
	ssd.Medium = storage.SSD.Model()
	for _, c := range standard {
		a, b := c.Price(tr, ram).UO, c.Price(tr, ssd).UO
		paged := c.Method == "btree" || c.Method == "hash" || c.Method == "lsm-level" || c.Method == "lsm-tier"
		if paged && !(b > a) {
			t.Errorf("%s: UO %.3f on RAM, %.3f on SSD; want dearer", c.Method, a, b)
		}
		if !paged && a != b {
			t.Errorf("%s: in-memory UO moved with the medium: %.3f vs %.3f", c.Method, a, b)
		}
	}
}

func TestLookupIsExact(t *testing.T) {
	for _, c := range standard {
		if got, ok := Lookup(c.Method); !ok || got != c {
			t.Errorf("Lookup(%q) = %+v, %v", c.Method, got, ok)
		}
	}
	for _, name := range append([]string{"lsm", "lsm-", "btre", "BTREE", ""}, NotPriced...) {
		if _, ok := Lookup(name); ok {
			t.Errorf("Lookup(%q) resolved", name)
		}
	}
}
