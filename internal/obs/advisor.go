package obs

import (
	"fmt"

	"repro/internal/model"
)

// The RUM advisor: map a workload fingerprint through the paper's
// read/update/memory cost plane and report which catalog configuration the
// current traffic is best placed on. Report-only by design — the advisor
// publishes "you are on X, this window wants Y, here is the predicted RUM
// delta" and never actuates; closing the loop (online substitution) is a
// future PR, and keeping the advisor pure keeps it deterministic and free
// to run on every window rotation.
//
// The prices are internal/model's, not measured counters: the advisor must
// price configurations that are NOT currently running, which only a model
// can do.

// AdvisorChoice is one priced candidate configuration.
type AdvisorChoice struct {
	// Config is the catalog-flavoured name, e.g. "lsm-tier(T=10,bloom=10b)".
	Config string `json:"config"`
	// RO/UO are predicted page reads per point read / per write; ScanRO
	// per scan at the fingerprint's median scan length; MO is the space
	// amplification factor (model.Row).
	RO     float64 `json:"ro"`
	UO     float64 `json:"uo"`
	ScanRO float64 `json:"scan_ro"`
	MO     float64 `json:"mo"`
	// Cost is the mix-weighted total: readFrac·RO + writeFrac·UO +
	// scanFrac·ScanRO + λ·MO. Lower is better placed.
	Cost float64 `json:"cost"`
}

// Advice is the advisor's verdict for one fingerprint: every candidate
// priced and ranked, the current configuration's row, and the predicted
// gain from moving.
type Advice struct {
	// Ranked holds every candidate, best (lowest cost) first.
	Ranked []AdvisorChoice `json:"ranked"`
	// Current is the priced row for the standard configuration of the
	// catalog method the server is on; for one the model does not price
	// (model.NotPriced) it carries the name alone.
	Current AdvisorChoice `json:"current"`
	// Best is Ranked[0].
	Best AdvisorChoice `json:"best"`
	// Delta is Current.Cost − Best.Cost: the predicted per-op page-access
	// saving of moving (0 when already best placed, or not priced).
	Delta float64 `json:"delta"`
}

// Moved reports whether the advisor recommends a different configuration
// than the current one.
func (a Advice) Moved() bool { return a.Best.Config != a.Current.Config }

// String renders the one-line report form:
//
//	advisor: on btree(fill=0.67) cost 2.41 → lsm-tier(T=10,bloom=10b) cost 0.87 (Δ1.54/op; RO 1.9 UO 0.1 MO 1.6)
func (a Advice) String() string {
	on := fmt.Sprintf("on %s cost %.2f", a.Current.Config, a.Current.Cost)
	if a.Current.MO == 0 {
		on = fmt.Sprintf("on %s (not priced)", a.Current.Config)
	} else if !a.Moved() {
		return "advisor: " + on + " — best placed"
	}
	return fmt.Sprintf("advisor: %s → %s cost %.2f (Δ%.2f/op; RO %.2f UO %.2f MO %.2f)",
		on, a.Best.Config, a.Best.Cost, a.Delta, a.Best.RO, a.Best.UO, a.Best.MO)
}

// Advise prices the point's newest completed fingerprint window against the
// model's candidates on the substrate the server is built on, sized by the
// point's live record total, with current as the running catalog method. ok
// is false before the first window completes (or with fingerprinting off).
func (p *WindowPoint) Advise(current string, on model.Params) (adv Advice, ok bool) {
	if p.Workload == nil || p.Workload.Last == nil {
		return Advice{}, false
	}
	_, _, _, records := p.Totals()
	on.N = float64(records)
	return Advise(p.Workload.Last, on, current), true
}

// Advise prices every model candidate under fp's traffic shape on the given
// substrate and ranks them. current is the running catalog method, looked up
// by exact name (model.Lookup); ranking needs no priced current row, so a
// method the model does not price still gets Ranked and Best. on.N is the
// live record count (the fingerprint's working set is used when larger — the
// advisor never assumes the structure is smaller than the traffic it serves).
func Advise(fp *Fingerprint, on model.Params, current string) (adv Advice) {
	t, on := fp.Stats().Priced(on)
	choice := func(r model.Row) AdvisorChoice {
		return AdvisorChoice{Config: r.Config.String(), RO: r.RO, UO: r.UO, ScanRO: r.ScanRO, MO: r.MO, Cost: r.Cost(t)}
	}
	for _, r := range model.Rank(t, on, func(r model.Row) float64 { return r.Cost(t) }) {
		adv.Ranked = append(adv.Ranked, choice(r))
	}
	adv.Best, adv.Current = adv.Ranked[0], AdvisorChoice{Config: current}
	if cur, ok := model.Lookup(current); ok {
		adv.Current = choice(cur.Price(t, on))
		adv.Delta = adv.Current.Cost - adv.Best.Cost
	}
	return adv
}
