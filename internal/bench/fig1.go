package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/rum"
	"repro/internal/workload"
)

// OrderCheck is one pairwise ordering the paper's Figure 1 implies: in
// dimension Dim, structure A must measure a lower amplification than B.
type OrderCheck struct {
	Dim   string // "R", "U" or "M"
	A, B  string
	ValA  float64
	ValB  float64
	Holds bool
}

// Fig1Result holds the measured RUM placement of every catalog structure
// under the canonical mixed workload — the empirical Figure 1.
type Fig1Result struct {
	N        int
	Ops      int
	Profiles []core.Profile
	Weights  []rum.Weights     // cohort-relative triangle positions
	Expected map[string]string // structure → paper's corner
	Corners  []rum.Corner      // measured relative corner per profile
	Agree    int               // structures landing in their paper corner
	Checks   []OrderCheck      // the figure's pairwise ordering claims
	ChecksOK int
}

// fig1Tolerance is the dominance margin for relative corner classification.
const fig1Tolerance = 0.06

// Fig1Mix is the placement workload: point-dominated with a sliver of range
// queries, the regime Figure 1's structures are designed around. (Heavy
// range scanning is a different design space — the analytics example and
// Table 1 cover it.)
var Fig1Mix = workload.Mix{Get: 0.58, Insert: 0.20, Update: 0.17, Delete: 0.05}

// Fig1Orderings are the concrete orderings Figure 1 asserts, restricted to
// comparisons that are meaningful under one accounting granularity:
// read-optimized structures must out-read write- and space-optimized ones,
// differential structures must out-write in-place ones, and sparse or
// compressed structures must out-store pointer-heavy ones.
var Fig1Orderings = []struct{ Dim, A, B string }{
	// Read overhead: indexes beat scans and probing stores.
	{"R", "btree", "unsorted-column"},
	{"R", "hash", "unsorted-column"},
	{"R", "skiplist", "unsorted-column"},
	{"R", "btree", "bitmap"},
	{"R", "hash", "bitmap"},
	{"R", "trie", "unsorted-column"},
	// Update overhead: differential structures beat in-place page writers,
	// and lazier merging beats eager merging.
	{"U", "lsm-tier", "btree"},
	{"U", "lsm-tier", "hash"},
	{"U", "lsm-tier", "lsm-level"},
	{"U", "lsm-level", "sorted-column"},
	{"U", "unsorted-column", "sorted-column"},
	// Memory overhead: sparse and compressed structures beat node-heavy ones.
	{"M", "zonemap", "btree"},
	{"M", "zonemap", "trie"},
	{"M", "bitmap", "trie"},
	{"M", "sorted-column", "skiplist"},
	{"M", "lsm-level", "lsm-tier"},
}

// ProfileCatalog is Figure 1's measurement protocol for any traffic: one run
// cell per named catalog row, each built on the cell's own Options (and so on
// its own storage hook), traced under the row name when cfg.Obs is set,
// preloaded with cfg.N records and profiled over cfg.Ops operations of mix,
// ranges 2^30 wide over the sparse 40-bit key domain. It fills no defaults:
// cfg is used as given. The profiles come back in names order; if any row
// failed, the error is a *SuiteError naming every failed row, returned once
// all cells have run.
func ProfileCatalog(cfg Config, exp string, names []string, mix workload.Mix) ([]core.Profile, error) {
	profiles := make([]core.Profile, len(names))
	cells := make([]Cell, len(names))
	for i, name := range names {
		cells[i] = Cell{
			Label: name,
			Run: func(ccfg Config) {
				spec, err := methods.Lookup(ccfg.Storage, name)
				if err != nil {
					panic(err)
				}
				gen := workload.New(workload.Config{Seed: ccfg.Seed, Mix: mix, InitialLen: ccfg.N, RangeLen: 1 << 30})
				am := spec.New()
				ccfg.observe(am, name)
				prof, err := core.RunProfile(am, gen, ccfg.Ops)
				if err != nil {
					panic(err)
				}
				prof.Name = name
				profiles[i] = prof
			},
		}
	}
	if err := cfg.tryCells(exp, cells); err != nil {
		return nil, err
	}
	return profiles, nil
}

// RunFig1 profiles every access method of the catalog under the same mixed
// workload and maps each into the RUM triangle, reproducing the placement of
// Figure 1 from measurements instead of expert judgment. Placement is
// cohort-relative (the figure compares structures to each other, not to the
// theoretical optimum of 1.0); the absolute amplifications are reported in
// the accompanying table.
func RunFig1(cfg Config) Fig1Result {
	cfg.Defaults()
	cfg.smallPool()
	res := Fig1Result{N: cfg.N, Ops: cfg.Ops, Expected: map[string]string{}}
	var names []string
	var expected []rum.Corner
	for _, spec := range methods.Catalog(cfg.Storage) {
		names = append(names, spec.Name)
		res.Expected[spec.Name] = spec.Corner.String()
		expected = append(expected, spec.Corner)
	}
	profiles, err := ProfileCatalog(cfg, "fig1", names, Fig1Mix)
	if err != nil {
		panic(err)
	}
	res.Profiles = profiles
	pts := make([]rum.Point, len(res.Profiles))
	for i, p := range res.Profiles {
		pts[i] = p.Point
	}
	res.Weights = rum.RelativeWeights(pts)
	for i := range res.Profiles {
		c := res.Weights[i].Classify(fig1Tolerance)
		res.Corners = append(res.Corners, c)
		if c == expected[i] {
			res.Agree++
		}
	}
	byName := map[string]rum.Point{}
	for _, p := range res.Profiles {
		byName[p.Name] = p.Point
	}
	dimOf := func(p rum.Point, d string) float64 {
		switch d {
		case "R":
			return p.R
		case "U":
			return p.U
		default:
			return p.M
		}
	}
	for _, o := range Fig1Orderings {
		va, vb := dimOf(byName[o.A], o.Dim), dimOf(byName[o.B], o.Dim)
		c := OrderCheck{Dim: o.Dim, A: o.A, B: o.B, ValA: va, ValB: vb, Holds: va < vb}
		if c.Holds {
			res.ChecksOK++
		}
		res.Checks = append(res.Checks, c)
	}
	return res
}

// Render prints the measured placements and the ASCII triangle.
func (r Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 (measured): structures in the RUM space (N=%d, ops=%d, balanced mix)\n\n", r.N, r.Ops)
	pts := make([]NamedPoint, 0, len(r.Profiles))
	rows := make([][]string, 0, len(r.Profiles))
	for i, p := range r.Profiles {
		w := r.Weights[i]
		pts = append(pts, NamedPoint{Label: p.Name, Point: p.Point, W: &w})
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.2f", p.Point.R),
			fmt.Sprintf("%.2f", p.Point.U),
			fmt.Sprintf("%.3f", p.Point.M),
			r.Corners[i].String(),
			r.Expected[p.Name],
		})
	}
	b.WriteString(table([]string{"structure", "RO", "UO", "MO", "measured corner", "paper corner"}, rows))
	b.WriteString("\n")
	b.WriteString(RenderTriangle(pts, 61))
	fmt.Fprintf(&b, "\n%d/%d structures land in their Figure-1 region.\n\n", r.Agree, len(r.Profiles))
	b.WriteString("Pairwise ordering claims of Figure 1:\n")
	for _, c := range r.Checks {
		mark := "ok "
		if !c.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s(%s)=%.1f < %s(%s)=%.1f\n", mark, c.Dim, c.A, c.ValA, c.Dim, c.B, c.ValB)
	}
	fmt.Fprintf(&b, "%d/%d orderings hold.\n", r.ChecksOK, len(r.Checks))
	return b.String()
}
