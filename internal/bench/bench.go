// Package bench is the experiment harness: one entry point per artifact of
// the paper — the Section-2 propositions, Table 1, Figures 1–3, the
// Section-3 conjecture grid, and the Section-4/5 adaptivity runs — each
// regenerating the artifact from measurements of the implemented structures
// and rendering it in a paper-like textual form. Beyond the paper's own
// artifacts, the harness prices the operational subsystems the Section-5
// roadmap motivates: chaos (a degraded device), serve (sharded
// concurrency), mvcc (snapshot reads), and walsweep (write-ahead logging
// and the group-commit durability trade).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
)

// Config holds the common experiment parameters.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// N is the dataset size in records where an experiment uses a single
	// size (default 1 << 16).
	N int
	// Ops is the measured operation count per run (default 20000).
	Ops int
	// Storage configures the simulated substrate for page-based methods.
	Storage methods.Options
	// Obs, when non-nil, traces every structure an experiment profiles:
	// spans, histograms, and the RUM time series. Experiments never hand
	// this observer to their run cells directly: each cell traces into an
	// isolated child observer, also wired as the cell's Storage.Hook so page
	// events are attributed too, and the children are absorbed back in cell
	// order once the experiment's cells are done.
	Obs *obs.Observer
	// Runner executes the experiment's run cells. nil (or a 1-worker
	// runner) runs every cell inline in enumeration order — the fully
	// sequential behaviour; a wider runner executes cells concurrently,
	// each on its own isolated storage stack. Results are identical either
	// way; only wall-clock changes.
	Runner *Runner
}

// observe points the run's observer (if any) at a freshly built structure.
func (c Config) observe(am *core.Instrumented, label string) {
	if c.Obs != nil {
		c.Obs.Target(am, label)
	}
}

// Defaults fills zero fields.
func (c *Config) Defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.N == 0 {
		c.N = 1 << 16
	}
	if c.Ops == 0 {
		c.Ops = 20000
	}
}

// smallPool gives an experiment that left the pool unset one its store
// outgrows, Figure 1's honesty rule: a resident store moves no page — the
// pool hides the device, every method looks read-optimal, and there is
// nothing to degrade, advise on or adapt to.
func (c *Config) smallPool() {
	if c.Storage.PoolPages == 0 {
		c.Storage.PoolPages = 8
	}
}

// makeRecords returns n records with unique scattered keys, sorted by key.
// Generation is memoized per (seed, n) — many cells of one suite ask for the
// same dataset, concurrently — and the canonical slice is kept immutable:
// callers get a private copy they may hand to structures that take ownership.
func makeRecords(seed int64, n int) []core.Record {
	e, _ := recordCache.LoadOrStore(recordKey{seed: seed, n: n}, &recordEntry{})
	entry := e.(*recordEntry)
	entry.once.Do(func() { entry.recs = generateRecords(seed, n) })
	out := make([]core.Record, len(entry.recs))
	copy(out, entry.recs)
	return out
}

func generateRecords(seed int64, n int) []core.Record {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	recs := make([]core.Record, 0, n)
	for len(recs) < n {
		k := rng.Uint64() >> 24 // 40-bit domain
		if seen[k] {
			continue
		}
		seen[k] = true
		recs = append(recs, core.Record{Key: k, Value: rng.Uint64() >> 1})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
