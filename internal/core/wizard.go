package core

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Priorities weights the three RUM overheads for the wizard: how much the
// user cares about read cost, write cost, and space. Zero values are
// normalized away; equal weights model "no preference".
type Priorities struct {
	Read  float64
	Write float64
	Space float64
}

func (p Priorities) normalized() Priorities {
	sum := p.Read + p.Write + p.Space
	if sum <= 0 {
		return Priorities{Read: 1.0 / 3, Write: 1.0 / 3, Space: 1.0 / 3}
	}
	return Priorities{Read: p.Read / sum, Write: p.Write / sum, Space: p.Space / sum}
}

// Requirements describes the workload the wizard recommends for.
type Requirements struct {
	Mix        workload.Mix
	DataSize   int // expected record count
	Priorities Priorities
	// FlashLike prices page writes at the SSD's write/read cost ratio
	// (Section 2's "storage with limited endurance … favors minimizing the
	// update overhead").
	FlashLike bool
	// MemoryTight biases against space amplification ("scarce cache
	// capacity justifies reducing the space overhead").
	MemoryTight bool
}

// Recommendation is one ranked suggestion from the wizard.
type Recommendation struct {
	Config    model.Config // the priced configuration: catalog method and suggested knobs
	Score     float64      // lower = better: priority-weighted page reads per op
	Rationale string
}

// scanShare is the share of the records the wizard takes a range query to
// return, having no scan to observe: the 2^30 span of the 2^40 key domain the
// profiled workloads ask for. The advisor and the morphing engine read the
// rows off the fingerprint instead.
const scanShare = 1.0 / 1024

// rationale is the one-line RUM position of each priced catalog method.
var rationale = map[string]string{
	"btree":           "logarithmic point and range access; pays page writes per update and index space",
	"hash":            "O(1) point access; ranges degenerate to full scans; directory plus bucket slack",
	"skiplist":        "in-memory towers: line-sized point access and cheap writes at two pointers a record",
	"lsm-level":       "blind writes absorbed in a memtable and merged eagerly; reads probe one run per level",
	"lsm-tier":        "blind writes merged lazily: cheapest updates, more runs to probe, more stale versions",
	"zonemap":         "near-zero index space; every query scans summaries plus a partition",
	"sorted-column":   "binary search with zero auxiliary space; inserts shift the tail",
	"unsorted-column": "constant-time appends with zero auxiliary space; every read scans",
	"cracking":        "adaptive: early queries pay partitioning, repeated ranges converge to index probes",
}

// Recommend ranks the model's candidate configurations for the requirements
// on the given substrate, best first. The score is the model's mix-weighted
// cost under the requirements' priorities (scaled so that no preference
// scores plain page reads per op).
func Recommend(req Requirements, on model.Params) []Recommendation {
	pr := req.Priorities
	if req.MemoryTight {
		pr.Space += 1
	}
	p := pr.normalized()
	on.N = float64(req.DataSize)
	if req.FlashLike {
		on.Medium = storage.SSD.Model()
	}
	t := model.Traffic{Mix: req.Mix, ScanRows: scanShare * on.N}
	score := func(r model.Row) float64 { return 3 * r.Weighted(t, p.Read, p.Write, p.Space) }
	var out []Recommendation
	for _, r := range model.Rank(t, on, score) {
		out = append(out, Recommendation{Config: r.Config, Score: score(r), Rationale: rationale[r.Config.Method]})
	}
	return out
}

// Explain renders a ranked recommendation list as text, naming the catalog
// methods the model does not price.
func Explain(recs []Recommendation) string {
	s := ""
	for i, r := range recs {
		s += fmt.Sprintf("%2d. %-26s score=%-8.2f %s\n", i+1, r.Config, r.Score, r.Rationale)
	}
	return s + fmt.Sprintf("(not priced: %s)\n", strings.Join(model.NotPriced, ", "))
}
