package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rum"
)

// CapCell is one cell of a conjecture table: with caps on two overheads, the
// best achievable value of the third among all measured configurations.
type CapCell struct {
	CapA, CapB float64
	Best       float64 // +Inf when no configuration satisfies both caps
	Config     string
}

// CapTable is one rotation of the conjecture: dimensions A and B are capped,
// C is minimized.
type CapTable struct {
	DimA, DimB, DimC string
	Cells            [][]CapCell
	CapsA, CapsB     []float64
	// GlobalBest is the best C with no caps at all.
	GlobalBest float64
	// Tight is the tightest feasible cell: the fewest loosening steps from
	// the corner (row + column), the lower floor on a tie.
	Tight CapCell
	// Floor = Tight.Best / GlobalBest: what capping A and B costs C.
	Floor float64
}

// bindingMargin is the least Floor a rotation may show for the conjecture to
// bind. A configuration that meets both tightest caps at the grid's best C
// reads exactly 1.00×: the caps cost it nothing, which is what the
// conjecture rules out. 1 % sits above that and below the smallest floor
// measured (1.02× on the R, U → M rotation at N = 2 048).
const bindingMargin = 1.01

// ConjectureResult is the Section-3 experiment: over every tuning
// configuration measured in the Figure-3 sweep, no configuration dominates,
// and capping any two overheads floors the third.
type ConjectureResult struct {
	Points   []ConfigPoint
	Tables   [3]CapTable
	Frontier int  // Pareto-optimal configurations across all families
	Dominant bool // whether any single configuration dominates all others
	Binding  bool // every rotation's Floor is at least bindingMargin
}

// RunConjecture reuses the Figure-3 sweep as a configuration grid and
// evaluates the conjecture empirically on it.
func RunConjecture(cfg Config) ConjectureResult {
	fig3 := RunFig3(cfg)
	var pts []ConfigPoint
	for _, fam := range fig3.Families {
		for _, p := range fam.Points {
			pts = append(pts, ConfigPoint{Config: fam.Name + ":" + p.Config, Point: p.Point})
		}
	}
	return evaluateConjecture(pts)
}

func dim(p rum.Point, d string) float64 {
	switch d {
	case "R":
		return p.R
	case "U":
		return p.U
	default:
		return p.M
	}
}

func evaluateConjecture(pts []ConfigPoint) ConjectureResult {
	res := ConjectureResult{Points: pts}

	// Pareto frontier and domination across the whole grid.
	res.Dominant = false
	for i, a := range pts {
		dominatedByA := 0
		dominated := false
		for j, b := range pts {
			if i == j {
				continue
			}
			if a.Point.Dominates(b.Point) {
				dominatedByA++
			}
			if b.Point.Dominates(a.Point) {
				dominated = true
			}
		}
		if !dominated {
			res.Frontier++
		}
		if dominatedByA == len(pts)-1 {
			res.Dominant = true
		}
	}

	rotations := [3][3]string{{"R", "U", "M"}, {"U", "M", "R"}, {"R", "M", "U"}}
	res.Binding = true
	for t, rot := range rotations {
		res.Tables[t] = buildCapTable(pts, rot[0], rot[1], rot[2])
		res.Binding = res.Binding && res.Tables[t].Floor >= bindingMargin
	}
	return res
}

// quantiles returns the q25/q50/q75 of dimension d over the grid, plus +Inf
// (no cap).
func quantiles(pts []ConfigPoint, d string) []float64 {
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = dim(p.Point, d)
	}
	sort.Float64s(vals)
	q := func(f float64) float64 { return vals[int(f*float64(len(vals)-1))] }
	return []float64{q(0.25), q(0.5), q(0.75), math.Inf(1)}
}

func buildCapTable(pts []ConfigPoint, a, b, c string) CapTable {
	tbl := CapTable{DimA: a, DimB: b, DimC: c, CapsA: quantiles(pts, a), CapsB: quantiles(pts, b)}
	best := func(capA, capB float64) (float64, string) {
		bv, bc := math.Inf(1), ""
		for _, p := range pts {
			if dim(p.Point, a) <= capA && dim(p.Point, b) <= capB {
				if v := dim(p.Point, c); v < bv {
					bv, bc = v, p.Config
				}
			}
		}
		return bv, bc
	}
	for _, ca := range tbl.CapsA {
		row := make([]CapCell, 0, len(tbl.CapsB))
		for _, cb := range tbl.CapsB {
			v, cfgName := best(ca, cb)
			row = append(row, CapCell{CapA: ca, CapB: cb, Best: v, Config: cfgName})
		}
		tbl.Cells = append(tbl.Cells, row)
	}
	tbl.GlobalBest = tbl.Cells[len(tbl.Cells)-1][len(tbl.CapsB)-1].Best
	steps := len(tbl.CapsA) + len(tbl.CapsB) // more than any cell's i + j
	for i, row := range tbl.Cells {
		for j, c := range row {
			if !math.IsInf(c.Best, 1) && (i+j < steps || i+j == steps && c.Best < tbl.Tight.Best) {
				tbl.Tight, steps = c, i+j
			}
		}
	}
	tbl.Floor = tbl.Tight.Best / tbl.GlobalBest
	return tbl
}

func fmtCap(v float64) string {
	if math.IsInf(v, 1) {
		return "none"
	}
	return fmt.Sprintf("%.1f", v)
}

// Render prints the three rotations of the conjecture grid and the verdict.
func (r ConjectureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3 conjecture grid over %d measured configurations\n", len(r.Points))
	fmt.Fprintf(&b, "Pareto frontier: %d configurations; single dominant configuration: %v\n\n", r.Frontier, r.Dominant)
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "Cap %s and %s → best achievable %s:\n", t.DimA, t.DimB, t.DimC)
		header := []string{fmt.Sprintf("%s cap \\ %s cap", t.DimA, t.DimB)}
		for _, cb := range t.CapsB {
			header = append(header, fmtCap(cb))
		}
		rows := make([][]string, 0, len(t.Cells))
		for i, row := range t.Cells {
			cells := []string{fmtCap(t.CapsA[i])}
			for _, c := range row {
				if math.IsInf(c.Best, 1) {
					cells = append(cells, "infeasible")
				} else {
					cells = append(cells, fmt.Sprintf("%.2f", c.Best))
				}
			}
			rows = append(rows, cells)
		}
		b.WriteString(table(header, rows))
		fmt.Fprintf(&b, "tightest feasible caps %s %s, %s %s: best %s %.2f = %.2fx the unconstrained %.2f\n\n",
			t.DimA, fmtCap(t.Tight.CapA), t.DimB, fmtCap(t.Tight.CapB), t.DimC, t.Tight.Best, t.Floor, t.GlobalBest)
	}
	fmt.Fprintf(&b, "Binding: %v (in every rotation, capping two overheads floors the third at least %.2fx above its unconstrained best)\n", r.Binding, bindingMargin)
	return b.String()
}
