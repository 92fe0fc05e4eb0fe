package bench

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/core"
	"repro/internal/cracking"
	"repro/internal/methods"
	"repro/internal/workload"
)

// CrackStep is one decile of the cracking query sequence.
type CrackStep struct {
	Queries   int
	AvgRead   float64 // physical bytes read per query in this decile
	Pieces    int
	CumSwaps  uint64
	CumCracks uint64
}

// PhaseResult is one workload phase of the morphing run.
type PhaseResult struct {
	Phase      string
	Flavor     string // shape at the end of the phase
	ReadBytes  uint64
	WriteBytes uint64
	Migrated   int // cumulative migrations
}

// AdaptiveResult is the Section-4/5 adaptivity experiment: cracking
// converges from scan cost toward index cost as queries accrue, and the
// morphing engine changes physical shape as the workload shifts.
type AdaptiveResult struct {
	N          int
	CrackSteps []CrackStep
	// Converged: the last decile reads at most a fifth of the first.
	Converged  bool
	FirstOverN float64 // first-decile read bytes / column bytes
	LastOverN  float64

	Phases     []PhaseResult
	Migrations int
}

// RunAdaptive measures the adaptive middle of the RUM triangle.
//
// Part 1 (cracking): a column of N records answers a sequence of random
// range queries; the per-query read cost must fall as cracking accumulates
// structure — "the index creation overhead is amortized over a period of
// time, gradually reducing the read overhead".
//
// Part 2 (morphing): the Section-5 morphing engine serves three workload
// phases (read-heavy → write-heavy → scan-heavy) and is expected to change
// its physical shape between them.
func RunAdaptive(cfg Config) AdaptiveResult {
	cfg.Defaults()
	res := AdaptiveResult{N: cfg.N}

	// The two parts are independent structures and run as separate cells;
	// each writes a disjoint set of result fields.
	cracked := func(cfg Config) {
		st := cracking.New(1<<20, nil)
		recs := makeRecords(cfg.Seed, cfg.N)
		// Load via the unsorted path: cracking starts from an unordered heap.
		// PCG keyed by (seed, stream) per the rand/v2 convention the fault
		// injector and serve streams use; the legacy math/rand source is gone.
		rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 9))
		shuffled := make([]core.Record, len(recs))
		copy(shuffled, recs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if err := st.BulkLoad(shuffled); err != nil {
			panic(err)
		}

		const queries = 500
		const deciles = 10
		perDecile := queries / deciles
		span := uint64(1) << 28 // narrow ranges over the 40-bit domain
		start := st.Meter().Snapshot()
		for d := 0; d < deciles; d++ {
			for q := 0; q < perDecile; q++ {
				lo := recs[rng.IntN(len(recs))].Key
				st.RangeScan(lo, lo+span, func(core.Key, core.Value) bool { return true })
			}
			diff := st.Meter().Diff(start)
			start = st.Meter().Snapshot()
			res.CrackSteps = append(res.CrackSteps, CrackStep{
				Queries:   (d + 1) * perDecile,
				AvgRead:   float64(diff.PhysicalRead()) / float64(perDecile),
				Pieces:    st.Pieces(),
				CumSwaps:  st.Stats().Swaps,
				CumCracks: st.Stats().Cracks,
			})
		}
		colBytes := float64(cfg.N * core.RecordSize)
		res.FirstOverN = res.CrackSteps[0].AvgRead / colBytes
		res.LastOverN = res.CrackSteps[len(res.CrackSteps)-1].AvgRead / colBytes
		res.Converged = res.LastOverN < res.FirstOverN/5
	}

	morphing := func(cfg Config) {
		cfg.smallPool()
		m, err := methods.NewMorphing(methods.Flavors(cfg.Storage), 0, cfg.Storage.Model(0))
		if err != nil {
			panic(err)
		}
		w := core.Instrument(m)
		gen := workload.New(workload.Config{
			Seed:       cfg.Seed,
			Mix:        workload.ReadHeavy,
			InitialLen: cfg.N / 4,
			RangeLen:   1 << 30,
		})
		if err := core.Preload(m, gen); err != nil {
			panic(err)
		}
		phases := []struct {
			name string
			mix  workload.Mix
		}{
			{"read-heavy", workload.ReadHeavy},
			{"write-heavy", workload.WriteHeavy},
			{"scan-heavy", workload.ScanHeavy},
		}
		for _, ph := range phases {
			gen := workload.New(workload.Config{
				Seed:       cfg.Seed + 13,
				Mix:        ph.mix,
				InitialLen: 0,
				RangeLen:   1 << 30,
			})
			core.SeedLive(gen, m)
			before := w.Meter().Snapshot()
			var st core.OpStats
			for i := 0; i < cfg.Ops/2; i++ {
				core.Apply(w, gen.Next(), &st)
			}
			w.Flush()
			d := w.Meter().Diff(before)
			res.Phases = append(res.Phases, PhaseResult{
				Phase:      ph.name,
				Flavor:     m.CurrentFlavor(),
				ReadBytes:  d.PhysicalRead(),
				WriteBytes: d.PhysicalWritten(),
				Migrated:   m.Migrations(),
			})
		}
		res.Migrations = m.Migrations()
	}

	cfg.runCells("adaptive", []Cell{
		{Label: "cracking", Run: cracked},
		{Label: "morphing", Run: morphing},
	})
	return res
}

// Render prints both adaptivity runs.
func (r AdaptiveResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive access methods (Sections 4–5), N=%d\n\n", r.N)
	b.WriteString("Database cracking: per-query read cost vs. queries executed\n")
	rows := make([][]string, 0, len(r.CrackSteps))
	for _, s := range r.CrackSteps {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Queries),
			fmtBytes(s.AvgRead),
			fmt.Sprintf("%d", s.Pieces),
			fmt.Sprintf("%d", s.CumCracks),
			fmt.Sprintf("%d", s.CumSwaps),
		})
	}
	b.WriteString(table([]string{"queries", "avg read/query", "pieces", "cracks", "swaps"}, rows))
	fmt.Fprintf(&b, "First decile reads %.1f%% of the column per query; last decile %.2f%%. Converged (>5x drop): %v\n\n",
		r.FirstOverN*100, r.LastOverN*100, r.Converged)

	b.WriteString("Morphing engine under workload shift:\n")
	rows = rows[:0]
	for _, p := range r.Phases {
		rows = append(rows, []string{
			p.Phase, p.Flavor, fmtBytes(float64(p.ReadBytes)), fmtBytes(float64(p.WriteBytes)), fmt.Sprintf("%d", p.Migrated),
		})
	}
	b.WriteString(table([]string{"phase", "shape at end", "phys reads", "phys writes", "migrations"}, rows))
	fmt.Fprintf(&b, "Total migrations: %d\n", r.Migrations)
	return b.String()
}
