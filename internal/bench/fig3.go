package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/approx"
	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/pbt"
	"repro/internal/rum"
	"repro/internal/workload"
)

// ConfigPoint is one tuning configuration of a structure and its measured
// RUM position.
type ConfigPoint struct {
	Config string
	Point  rum.Point
}

// Fig3Family is one tunable structure swept over its knobs: the set of
// positions it can reach in the RUM space.
type Fig3Family struct {
	Name   string
	Points []ConfigPoint
	// SpreadR/U/M is the log2 range each dimension covers across the sweep:
	// a structure that is "an area, not a point" has nonzero spread.
	SpreadR, SpreadU, SpreadM float64
	// FrontierSize counts configurations not dominated by another of the
	// same family; the RUM tradeoff predicts a frontier, not a single
	// winner.
	FrontierSize int
}

// Fig3Result is the measured Figure 3: tunable access methods cover areas
// of the RUM space.
type Fig3Result struct {
	N        int
	Ops      int
	Families []Fig3Family
}

// fig3Mix exercises all three overheads: reads, scans, and writes.
var fig3Mix = workload.Mix{Get: 0.45, Scan: 0.05, Insert: 0.25, Update: 0.20, Delete: 0.05}

// fig3Sweep enumerates the whole configuration grid: every entry is one
// (family, label, builder) triple. Builders take the cell's Config so each
// configuration is constructed against its own isolated storage stack.
type fig3Config struct {
	family string
	label  string
	build  func(Config) *core.Instrumented
}

func fig3Sweep(cfg Config) []fig3Config {
	var sweep []fig3Config
	add := func(family, label string, build func(Config) *core.Instrumented) {
		sweep = append(sweep, fig3Config{family: family, label: label, build: build})
	}

	// --- B+-tree: node capacity and bulk fill ---
	for _, maxLeaf := range []int{16, 64, 0} { // 0 = full page
		for _, fill := range []float64{0.5, 1.0} {
			maxLeaf, fill := maxLeaf, fill
			add("btree", fmt.Sprintf("leaf=%d,fill=%.1f", maxLeaf, fill), func(c Config) *core.Instrumented {
				return methods.NewBTree(c.Storage, btree.Config{MaxLeaf: maxLeaf, BulkFill: fill})
			})
		}
	}

	// --- LSM: size ratio, tier/level, bloom bits ---
	for _, t := range []int{2, 4, 10} {
		for _, tier := range []bool{false, true} {
			for _, bloomBits := range []float64{0, 10} {
				t, tier, bloomBits := t, tier, bloomBits
				mode := "level"
				if tier {
					mode = "tier"
				}
				add("lsm", fmt.Sprintf("T=%d,%s,bloom=%g", t, mode, bloomBits), func(c Config) *core.Instrumented {
					return methods.NewLSM(c.Storage, lsm.Config{
						MemtableRecords: 1024, SizeRatio: t, Tiering: tier, BloomBitsPerKey: bloomBits,
					})
				})
			}
		}
	}

	// --- Zone maps: partition size ---
	for _, p := range []int{32, 128, 512, 4096} {
		p := p
		add("zonemap", fmt.Sprintf("P=%d", p), func(Config) *core.Instrumented {
			return methods.NewZoneMap(p)
		})
	}

	// --- Update-friendly bitmaps: merge threshold ---
	for _, th := range []int{16, 256, 4096} {
		th := th
		add("bitmap", fmt.Sprintf("merge=%d", th), func(Config) *core.Instrumented {
			return methods.NewBitmap(bitmap.Config{Cardinality: 16, MergeThreshold: th})
		})
	}

	// --- Trie: stride (16-bit strides are omitted: over scattered keys every
	// record would materialize multiple 2^16-pointer nodes) ---
	for _, stride := range []uint{4, 8} {
		stride := stride
		add("trie", fmt.Sprintf("stride=%d", stride), func(Config) *core.Instrumented {
			return methods.NewTrie(stride)
		})
	}

	// --- Partitioned B-tree: partition size × merge fan-in (partitions
	// scale with N so every configuration seals and merges during the run) ---
	for _, part := range []int{cfg.N / 64, cfg.N / 8} {
		if part < 16 {
			part = 16
		}
		for _, fan := range []int{2, 8} {
			part, fan := part, fan
			add("pbt", fmt.Sprintf("part=%d,fan=%d", part, fan), func(c Config) *core.Instrumented {
				return methods.NewPBT(c.Storage, pbt.Config{PartitionRecords: part, MergeFanIn: fan})
			})
		}
	}

	// --- Approximate index: partition × fingerprint bits ---
	for _, part := range []int{64, 512} {
		for _, bits := range []uint{12, 24} {
			part, bits := part, bits
			add("approx", fmt.Sprintf("P=%d,fp=%d", part, bits), func(Config) *core.Instrumented {
				return methods.NewApprox(approx.Config{Partition: part, FingerprintBits: bits})
			})
		}
	}
	return sweep
}

// RunFig3 sweeps each tunable structure across its knobs, profiling every
// configuration under the same workload, and reports the area each family
// covers in the RUM space — the paper's vision of access methods that
// "seamlessly transition" between the three corners. Every configuration is
// one run cell; families are assembled from the cell results in sweep order.
func RunFig3(cfg Config) Fig3Result {
	cfg.Defaults()
	cfg.smallPool()
	res := Fig3Result{N: cfg.N, Ops: cfg.Ops}

	sweep := fig3Sweep(cfg)
	points := make([]ConfigPoint, len(sweep))
	cells := make([]Cell, len(sweep))
	for i, sc := range sweep {
		i, sc := i, sc
		cells[i] = Cell{
			Label: sc.family + ":" + sc.label,
			Run: func(ccfg Config) {
				am := sc.build(ccfg)
				// The structure's own name (e.g. "btree(B=256)") is the trace
				// label: unlike the sweep label it is unique across families.
				ccfg.observe(am, am.Name())
				gen := workload.New(workload.Config{
					Seed:       ccfg.Seed,
					Mix:        fig3Mix,
					InitialLen: ccfg.N,
					RangeLen:   1 << 30,
				})
				prof, err := core.RunProfile(am, gen, ccfg.Ops)
				if err != nil {
					panic(fmt.Sprintf("fig3: %s: %v", sc.label, err))
				}
				points[i] = ConfigPoint{Config: sc.label, Point: prof.Point}
			},
		}
	}
	cfg.runCells("fig3", cells)

	for i, sc := range sweep {
		if len(res.Families) == 0 || res.Families[len(res.Families)-1].Name != sc.family {
			res.Families = append(res.Families, Fig3Family{Name: sc.family})
		}
		fam := &res.Families[len(res.Families)-1]
		fam.Points = append(fam.Points, points[i])
	}
	for i := range res.Families {
		res.Families[i] = finishFamily(res.Families[i])
	}
	return res
}

func finishFamily(f Fig3Family) Fig3Family {
	span := func(get func(rum.Point) float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range f.Points {
			v := math.Log2(math.Max(1, get(p.Point)))
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	f.SpreadR = span(func(p rum.Point) float64 { return p.R })
	f.SpreadU = span(func(p rum.Point) float64 { return p.U })
	f.SpreadM = span(func(p rum.Point) float64 { return p.M })
	for i, a := range f.Points {
		dominated := false
		for j, b := range f.Points {
			if i != j && b.Point.Dominates(a.Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			f.FrontierSize++
		}
	}
	return f
}

// Render prints the sweep results and a triangle per family.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (measured): tunable access methods cover areas of the RUM space (N=%d, ops=%d per config)\n\n", r.N, r.Ops)
	for _, fam := range r.Families {
		fmt.Fprintf(&b, "— %s: %d configurations, Pareto frontier %d, log2 spread R=%.2f U=%.2f M=%.2f\n",
			fam.Name, len(fam.Points), fam.FrontierSize, fam.SpreadR, fam.SpreadU, fam.SpreadM)
		rows := make([][]string, 0, len(fam.Points))
		for _, p := range fam.Points {
			rows = append(rows, []string{
				p.Config,
				fmt.Sprintf("%.1f", p.Point.R),
				fmt.Sprintf("%.1f", p.Point.U),
				fmt.Sprintf("%.3f", p.Point.M),
			})
		}
		b.WriteString(table([]string{"config", "RO", "UO", "MO"}, rows))
		b.WriteString("\n")
	}
	// One triangle with every configuration, placed relative to the full
	// swept cohort; all configurations of a family share its marker, so each
	// family reads as an area.
	var all []rum.Point
	var famIdx []int
	for fi, fam := range r.Families {
		for _, p := range fam.Points {
			all = append(all, p.Point)
			famIdx = append(famIdx, fi)
		}
	}
	ws := rum.RelativeWeights(all)
	pts := make([]NamedPoint, 0, len(all))
	for i := range all {
		w := ws[i]
		pts = append(pts, NamedPoint{
			Label:  r.Families[famIdx[i]].Name,
			Point:  all[i],
			W:      &w,
			Marker: 'A' + byte(famIdx[i]),
		})
	}
	b.WriteString(RenderTriangle(pts, 61))
	b.WriteString("\nMarkers: ")
	for i, fam := range r.Families {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%c = %s (%d configs)", 'A'+byte(i), fam.Name, len(fam.Points))
	}
	b.WriteString("\n")
	return b.String()
}
