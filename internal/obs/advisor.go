package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The RUM advisor: map a workload fingerprint through the paper's
// read/update/memory cost plane and report which catalog configuration the
// current traffic is best placed on. Report-only by design — the advisor
// publishes "you are on X, this window wants Y, here is the predicted RUM
// delta" and never actuates; closing the loop (online substitution) is a
// future PR, and keeping the advisor pure keeps it deterministic and free
// to run on every window rotation.
//
// The model is the analytic one the paper sketches, in page accesses per
// operation with pageEntries records per page. It deliberately reuses the
// wizard's framing (per-method RO/UO/MO formulas parameterised by the
// structural knobs) rather than measured counters: the advisor must price
// configurations that are NOT currently running, which only a model can do.

// Advisor model constants: records per page, memtable capacity in records
// (mirrors the catalog's lsm defaults), inner-node cache hit rate for
// tree-structured methods, the memory-rent weight λ that converts a space
// amplification into cost units, and the fraction of hot-share reads the
// buffer pool absorbs.
const (
	advPageEntries = 128
	advMemtable    = 1024
	advInnerCache  = 0.8
	advMemRent     = 0.05
	advHotHit      = 0.75
)

// AdvisorChoice is one priced candidate configuration.
type AdvisorChoice struct {
	// Config is the catalog-flavoured name, e.g. "lsm-tier(T=10,bloom=10b)".
	Config string `json:"config"`
	// RO/UO are predicted page accesses per point read / per write; ScanRO
	// per scan at the fingerprint's median scan length; MO is the space
	// amplification factor.
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
	// Current is the priced row for the configuration the server is on
	// (matched by method-name prefix; a best-effort guess if the exact
	// knobs differ from any candidate).
	Current AdvisorChoice `json:"current"`
	// Best is Ranked[0].
	Best AdvisorChoice `json:"best"`
	// Delta is Current.Cost − Best.Cost: the predicted per-op page-access
	// saving of moving (0 when already best placed).
	Delta float64 `json:"delta"`
}

// Moved reports whether the advisor recommends a different configuration
// than the current one.
func (a Advice) Moved() bool { return a.Best.Config != a.Current.Config }

// String renders the one-line report form:
//
//	advisor: on btree(fill=0.67) cost 2.41 → lsm-tier(T=10,bloom=10b) cost 0.87 (Δ1.54/op; RO 1.9 UO 0.1 MO 1.6)
func (a Advice) String() string {
	if !a.Moved() {
		return fmt.Sprintf("advisor: on %s cost %.2f — best placed", a.Current.Config, a.Current.Cost)
	}
	return fmt.Sprintf("advisor: on %s cost %.2f → %s cost %.2f (Δ%.2f/op; RO %.2f UO %.2f MO %.2f)",
		a.Current.Config, a.Current.Cost, a.Best.Config, a.Best.Cost, a.Delta,
		a.Best.RO, a.Best.UO, a.Best.MO)
}

// Advise prices the point's newest completed fingerprint window against the
// catalog, sized by the point's live record total, with current as the
// running configuration. ok is false before the first window completes (or
// with fingerprinting off).
func (p *WindowPoint) Advise(current string) (adv Advice, ok bool) {
	if p.Workload == nil || p.Workload.Last == nil {
		return Advice{}, false
	}
	_, _, _, records := p.Totals()
	return Advise(p.Workload.Last, float64(records), current), true
}

// advCandidate is one catalog configuration the advisor prices.
type advCandidate struct {
	name string
	// price returns (RO, UO, ScanRO, MO) for a dataset of n records, a scan
	// of scanRows rows, with reads discounted by cacheHit (fraction of point
	// reads the pool absorbs).
	price func(n, scanRows, cacheHit float64) (ro, uo, scan, mo float64)
}

// lsmLevels returns the level count for n records under size ratio t.
func lsmLevels(n, t float64) float64 {
	if n <= advMemtable {
		return 1
	}
	l := math.Ceil(math.Log(n/advMemtable) / math.Log(t))
	if l < 1 {
		l = 1
	}
	return l
}

// bloomFP is the false-positive rate of a Bloom filter with b bits per key.
func bloomFP(b float64) float64 { return math.Pow(0.6185, b) }

// advCandidates is the catalog slice the advisor prices: B-trees at two fill
// factors, an open-addressing hash table, and leveled/tiered LSMs across
// size ratio and Bloom budget. Names mirror the repository's method names
// before the parenthesis so the current method maps by prefix.
func advCandidates() []advCandidate {
	btree := func(fill float64) advCandidate {
		return advCandidate{
			name: fmt.Sprintf("btree(fill=%.2f)", fill),
			price: func(n, scanRows, cacheHit float64) (float64, float64, float64, float64) {
				fanout := advPageEntries * fill
				h := math.Max(1, math.Ceil(math.Log(math.Max(n, 2))/math.Log(fanout)))
				// Inner nodes are pool-resident; the leaf read misses
				// (1-cacheHit) of the time.
				ro := (1 + (h-1)*(1-advInnerCache)) * (1 - cacheHit)
				// Write-back pool: the leaf page absorbs repeated updates
				// before eviction, plus an amortised split share.
				uo := ro + 0.5 + 1/(fanout*(1-fill+0.01))
				// Leaves chain in key order: descend once, then sequential.
				scan := ro + scanRows/(advPageEntries*fill)
				mo := 1/fill + h*0.01
				return ro, uo, scan, mo
			},
		}
	}
	lsm := func(tiered bool, t, bloom float64) advCandidate {
		kind := "lsm-level"
		if tiered {
			kind = "lsm-tier"
		}
		return advCandidate{
			name: fmt.Sprintf("%s(T=%.0f,bloom=%.0fb)", kind, t, bloom),
			price: func(n, scanRows, cacheHit float64) (float64, float64, float64, float64) {
				l := lsmLevels(n, t)
				fp := bloomFP(bloom)
				runs := l // sorted runs a read/scan must consider
				if tiered {
					runs = 1 + (t-1)*(l-1) // every tier keeps up to T-1 runs per level
				}
				// Point read: one true hit, a false-positive page per other
				// run, and a filter/fence probe per run.
				ro := (1 + (runs-1)*fp + 0.02*runs) * (1 - cacheHit)
				// Merge amplification, read AND written, amortised to pages,
				// plus the memtable flush share: leveled rewrites ~T pages
				// per level crossed, tiered ~1.
				amp := l
				if !tiered {
					amp = t * l
				}
				uo := 2*amp/advPageEntries + 1.0/advPageEntries
				// Scans cannot use Bloom filters: a seek per run, then the
				// merged rows with per-run iterator/stale-version overhead.
				scan := runs*(1-cacheHit) + scanRows/advPageEntries*(1+0.15*runs)
				mo := 1 + bloom/advPageEntries
				if tiered {
					mo += (t - 1) / t // overlapping runs hold stale versions
				} else {
					mo += 1 / t
				}
				return ro, uo, scan, mo
			},
		}
	}
	return []advCandidate{
		btree(0.67),
		btree(0.90),
		{
			name: "hash",
			price: func(n, scanRows, cacheHit float64) (float64, float64, float64, float64) {
				ro := 1 * (1 - cacheHit)
				uo := ro + 0.5
				// No order: a scan is a full sweep.
				scan := math.Max(scanRows, n) / advPageEntries
				return ro, uo, scan, 1.5
			},
		},
		{
			name: "skiplist",
			price: func(n, scanRows, cacheHit float64) (float64, float64, float64, float64) {
				// Pointer-chasing towers: no page packing on the way down.
				ro := (1 + 0.3*math.Log2(math.Max(n, 2))) * (1 - cacheHit)
				uo := ro + 0.5
				scan := ro + scanRows/advPageEntries
				return ro, uo, scan, 1.8
			},
		},
		lsm(false, 4, 10),
		lsm(false, 10, 10),
		lsm(false, 10, 2),
		lsm(true, 4, 10),
		lsm(true, 10, 10),
	}
}

// Advise prices every candidate under fp's traffic shape and ranks them.
// current is the running configuration's method name (e.g. "btree",
// "lsm-level"); it maps to the candidate whose name shares the longest
// prefix, falling back to the first candidate. n is the live record count
// (the fingerprint's working set is used when larger — the advisor never
// assumes the structure is smaller than the traffic it serves).
func Advise(fp *Fingerprint, n float64, current string) Advice {
	st := fp.Stats()
	if ws := st.Distinct; ws > n {
		n = ws
	}
	if n < 2 {
		n = 2
	}
	scanRows := st.ScanP50
	if scanRows < 1 {
		scanRows = 1
	}
	// Hot-share reads hit the buffer pool; the discount applies to every
	// candidate equally, so skew narrows the read gaps without reordering
	// writes — which is exactly what a shared pool does.
	cacheHit := advHotHit * st.HotShare
	readF := st.Get
	writeF := st.Insert + st.Update + st.Delete
	scanF := st.Scan

	var out Advice
	for _, c := range advCandidates() {
		ro, uo, scan, mo := c.price(n, scanRows, cacheHit)
		out.Ranked = append(out.Ranked, AdvisorChoice{
			Config: c.name, RO: ro, UO: uo, ScanRO: scan, MO: mo,
			Cost: readF*ro + writeF*uo + scanF*scan + advMemRent*mo,
		})
	}
	sort.SliceStable(out.Ranked, func(i, j int) bool {
		if out.Ranked[i].Cost != out.Ranked[j].Cost {
			return out.Ranked[i].Cost < out.Ranked[j].Cost
		}
		return out.Ranked[i].Config < out.Ranked[j].Config
	})
	out.Best = out.Ranked[0]
	out.Current = matchCurrent(out.Ranked, current)
	out.Delta = out.Current.Cost - out.Best.Cost
	return out
}

// matchCurrent finds the ranked row whose config name best matches the
// running method name (longest common prefix wins, ties to the cheaper row).
func matchCurrent(ranked []AdvisorChoice, current string) AdvisorChoice {
	best, bestLen := ranked[0], -1
	for _, r := range ranked {
		base := r.Config
		if i := strings.IndexByte(base, '('); i >= 0 {
			base = base[:i]
		}
		l := 0
		for l < len(base) && l < len(current) && base[l] == current[l] {
			l++
		}
		if l == len(base) && l == len(current) && l > bestLen {
			best, bestLen = r, l
		}
	}
	if bestLen >= 0 {
		return best
	}
	// No exact method match: fall back to the longest prefix.
	for _, r := range ranked {
		if strings.HasPrefix(r.Config, current) && len(current) > bestLen {
			best, bestLen = r, len(current)
		}
	}
	return best
}
