package model_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/model"
	"repro/internal/workload"
)

// The calibration: every priced catalog method is profiled by core.RunProfile
// on pure get / write / scan streams and the drift experiment's three phase
// mixes, its measured physical traffic converted to pages per op, and the
// model held to it — over the horizon the wizard, the advisor and the
// morphing engine price (Traffic.Ops = 0: as many operations as records). The
// bounds are what the model achieves today, with a little slack for a changed
// seed; tighten them when a formula improves, never loosen them to make a
// change pass.
const (
	calibN    = 1 << 13
	calibPool = 8 // fig1's pool: small, or the buffer cache hides the device
	calibRows = 512

	// minTau bounds Kendall's τ between the predicted and the measured
	// ordering of the methods, per dimension (achieved: 1.00 on RO, UO, ScanRO
	// and MO; at N = 2^12 and 2^14 under another seed 0.89–1.00, the near-ties
	// among B-tree, LSM and cracking scans swapping).
	minTau = 0.85
	// maxRegret bounds (measured cost of the model's pick − measured best) /
	// measured best on each stream (achieved: 0 on all six; the two LSMs
	// measure within 0.01 of each other on three of them).
	maxRegret = 0.02
)

// calibStream is one measured stream: its traffic shape as the model sees it.
type calibStream struct {
	name string
	t    model.Traffic
}

func calibStreams() []calibStream {
	out := []calibStream{
		{"get", model.Traffic{Mix: workload.Mix{Get: 1}}},
		{"write", model.Traffic{Mix: workload.Mix{Insert: 0.6, Update: 0.3, Delete: 0.1}}},
		{"scan", model.Traffic{Mix: workload.Mix{Scan: 1}}},
	}
	for _, ph := range bench.DriftPhases {
		m := ph.Mix
		out = append(out, calibStream{ph.Name, model.Traffic{Mix: workload.Mix{
			Get: m.Get, Scan: m.Scan, Insert: m.Insert, Update: m.Update, Delete: m.Delete,
		}}})
	}
	for i := range out {
		out[i].t.ScanRows = calibRows
	}
	return out
}

// measure profiles one catalog method on one stream: pages moved per op
// (read plus written; the medium is RAM, so both weigh one) and the space
// amplification at the end.
func measure(t *testing.T, spec methods.Spec, tr model.Traffic) (pages, mo float64) {
	t.Helper()
	gen := workload.New(workload.Config{
		Seed: 1, InitialLen: calibN,
		Mix: tr.Mix,
		// Keys scatter over the 40-bit domain: this span holds ScanRows of them.
		RangeLen: uint64(tr.ScanRows) * (1 << 40 / calibN),
	})
	p, err := core.RunProfile(spec.New(), gen, calibN)
	if err != nil {
		t.Fatal(err)
	}
	bytes := p.Meter.PhysicalRead() + p.Meter.PhysicalWritten()
	return float64(bytes) / 4096 / calibN, p.Size.SpaceAmplification()
}

// kendall is Kendall's τ-b between two paired samples.
func kendall(a, b []float64) float64 {
	var conc, disc, tiesA, tiesB float64
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			switch da, db := a[i]-a[j], b[i]-b[j]; {
			case da == 0 && db == 0:
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case da*db > 0:
				conc++
			default:
				disc++
			}
		}
	}
	return (conc - disc) / math.Sqrt((conc+disc+tiesA)*(conc+disc+tiesB))
}

func TestCalibration(t *testing.T) {
	opt := methods.Options{PoolPages: calibPool}
	params := opt.Model(calibN)
	streams := calibStreams()

	// Every catalog method is priced or named in model.NotPriced.
	var specs []methods.Spec
	var cfgs []model.Config
	for _, spec := range methods.Catalog(opt) {
		cfg, ok := model.Lookup(spec.Name)
		if ok == slices.Contains(model.NotPriced, spec.Name) {
			t.Fatalf("catalog method %q: priced=%v but NotPriced=%v", spec.Name, ok, model.NotPriced)
		}
		if ok {
			specs, cfgs = append(specs, spec), append(cfgs, cfg)
		}
	}

	// traffic[s][m] is pages per op of stream s on method m, mos[s][m] the
	// space amplification when the stream ends, cost[s][m] the objective the
	// advisor minimises (traffic plus rent on the space); index 0 predicted,
	// 1 measured.
	var traffic, mos, cost [2][][]float64
	for i := range traffic {
		for _, tab := range []*[][]float64{&traffic[i], &mos[i], &cost[i]} {
			*tab = make([][]float64, len(streams))
			for s := range streams {
				(*tab)[s] = make([]float64, len(cfgs))
			}
		}
	}
	var tab strings.Builder
	fmt.Fprintf(&tab, "pages/op + MO, predicted/measured  (N=%d, pool=%d pages, %d ops, %d-row scans; cost = pages/op + %.2f·MO)\n%-16s",
		calibN, calibPool, calibN, calibRows, model.SpaceRent, "method")
	for _, s := range streams {
		fmt.Fprintf(&tab, " %21s", s.name)
	}
	tab.WriteByte('\n')
	for m, cfg := range cfgs {
		fmt.Fprintf(&tab, "%-16s", cfg.Method)
		for s, st := range streams {
			row := cfg.Price(st.t, params)
			pages, mo := measure(t, specs[m], st.t)
			traffic[0][s][m], traffic[1][s][m] = row.Weighted(st.t, 1, 1, 0), pages
			cost[0][s][m], cost[1][s][m] = row.Cost(st.t), pages+model.SpaceRent*mo
			mos[0][s][m], mos[1][s][m] = row.MO, mo
			fmt.Fprintf(&tab, " %5.2f+%4.2f/%5.2f+%4.2f", traffic[0][s][m], row.MO, pages, mo)
		}
		tab.WriteByte('\n')
	}
	t.Log("\n" + tab.String())

	// (b) Rank agreement per dimension: the pure streams are RO, UO, ScanRO;
	// MO is read where it moves most, at the end of the write stream.
	for d, dim := range []string{"RO", "UO", "ScanRO", "MO"} {
		a, b := traffic[0][d%3], traffic[1][d%3]
		if dim == "MO" {
			a, b = mos[0][1], mos[1][1]
		}
		if tau := kendall(a, b); tau < minTau {
			t.Errorf("%s: Kendall τ %.2f between predicted and measured ranking, want ≥ %.2f", dim, tau, minTau)
		} else {
			t.Logf("%s: τ = %.2f", dim, tau)
		}
	}

	// (c) Regret of the model's pick against the measured best.
	for s, st := range streams {
		pick := slices.Index(cost[0][s], slices.Min(cost[0][s]))
		best := slices.Min(cost[1][s])
		regret := (cost[1][s][pick] - best) / best
		t.Logf("%-10s model picks %-15s measured best %-15s regret %.2f", st.name,
			cfgs[pick].Method, cfgs[slices.Index(cost[1][s], best)].Method, regret)
		if regret > maxRegret {
			t.Errorf("%s: regret %.2f of picking %s, want ≤ %.2f", st.name, regret, cfgs[pick].Method, maxRegret)
		}
	}
}

// (a) Every Figure-1 ordering that names priced methods holds in the model,
// priced under the figure's own mix, size and pool.
func TestCalibrationFig1Orderings(t *testing.T) {
	tr := model.Traffic{Mix: bench.Fig1Mix}
	params := methods.Options{PoolPages: 8}.Model(1 << 16)
	dim := func(method, d string) (float64, bool) {
		cfg, ok := model.Lookup(method)
		if !ok {
			return 0, false
		}
		row := cfg.Price(tr, params)
		return map[string]float64{"R": row.RO, "U": row.UO, "M": row.MO}[d], true
	}
	checked := 0
	for _, o := range bench.Fig1Orderings {
		a, okA := dim(o.A, o.Dim)
		b, okB := dim(o.B, o.Dim)
		if !okA || !okB {
			continue
		}
		checked++
		if !(a < b) {
			t.Errorf("%s(%s)=%.3f < %s(%s)=%.3f does not hold in the model", o.Dim, o.A, a, o.Dim, o.B, b)
		}
	}
	if checked < 9 {
		t.Fatalf("only %d of %d Figure-1 orderings name priced methods", checked, len(bench.Fig1Orderings))
	}
}
