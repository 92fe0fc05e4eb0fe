package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Runner schedules independent run cells — one (experiment, method, config)
// point each — onto a bounded worker pool. Every cell owns a fully isolated
// storage stack (Device, BufferPool, meters, observer), so cells are safe to
// execute concurrently even though the stacks themselves are single-owner;
// results are merged back in enumeration order, which makes every rendered
// table, trace, and time series byte-identical regardless of worker count.
//
// A nil *Runner (or one worker) executes cells inline in enumeration order,
// preserving fully sequential behaviour; the merge path is identical either
// way. One Runner may be shared by several experiments running concurrently:
// the pool bound is global, the per-experiment merge is not.
type Runner struct {
	workers int
	sem     chan struct{}

	cells  atomic.Uint64
	failed atomic.Uint64
}

// NewRunner creates a pool of the given width; workers <= 0 selects
// GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool width; a nil runner reports 1 (sequential).
func (r *Runner) Workers() int {
	if r == nil {
		return 1
	}
	return r.workers
}

// RunnerStats summarizes a runner's lifetime activity.
type RunnerStats struct {
	Cells  uint64 // cells executed (including failed ones)
	Failed uint64 // cells that panicked
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() RunnerStats {
	if r == nil {
		return RunnerStats{}
	}
	return RunnerStats{Cells: r.cells.Load(), Failed: r.failed.Load()}
}

// CellError reports one run cell that panicked. The experiment it belongs to
// keeps running its other cells; the failure surfaces once all of them have
// finished.
type CellError struct {
	Exp   string // experiment name
	Label string // cell label within the experiment
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery (for stderr, not stable output)
}

// Error formats the failed cell without the stack (stacks differ run to run;
// callers print them separately when wanted).
func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s: %v", e.Exp, e.Label, e.Value)
}

// SuiteError aggregates every failed cell of one experiment.
type SuiteError struct {
	Exp   string
	Cells []*CellError
}

// Error lists the failed cells in enumeration order.
func (e *SuiteError) Error() string {
	s := fmt.Sprintf("%s: %d cell(s) failed:", e.Exp, len(e.Cells))
	for _, c := range e.Cells {
		s += "\n  " + c.Error()
	}
	return s
}

// Map runs fn(0..n-1) on the pool, recovering a panic in any index into a
// CellError, and returns the per-index errors (nil entries for clean cells).
// With a nil runner or a single worker the calls run inline, in order, on the
// caller's goroutine — byte-for-byte the sequential behaviour.
func (r *Runner) Map(n int, fn func(i int)) []*CellError {
	errs := make([]*CellError, n)
	runOne := func(i int) {
		if r != nil {
			r.cells.Add(1)
		}
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &CellError{Value: v, Stack: debug.Stack()}
				if r != nil {
					r.failed.Add(1)
				}
			}
		}()
		fn(i)
	}
	if r == nil || r.workers == 1 {
		for i := 0; i < n; i++ {
			runOne(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			runOne(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// Cell is one independent unit of experiment work: an isolated build-and-
// measure closure identified by a label for failure reporting.
type Cell struct {
	Label string
	Run   func(cfg Config)
}

// runCells executes an experiment's cells on the configured Runner and
// panics with tryCells' *SuiteError if any cell failed.
func (c Config) runCells(exp string, cells []Cell) {
	if err := c.tryCells(exp, cells); err != nil {
		panic(err)
	}
}

// tryCells executes an experiment's cells on the configured Runner. Each cell
// receives a private Config copy: when the experiment is observed, the copy
// carries a fresh child Observer (also wired as the storage hook) so the
// cell's structures trace into isolated state. After every cell has finished,
// child observers are finished and absorbed into the experiment's observer in
// enumeration order — the step that makes exported traces independent of
// worker count. If any cell panicked, tryCells returns a *SuiteError naming
// every failed cell (after all cells have run and clean cells have been
// merged).
func (c Config) tryCells(exp string, cells []Cell) *SuiteError {
	children := make([]*obs.Observer, len(cells))
	errs := c.Runner.Map(len(cells), func(i int) {
		ccfg := c
		if c.Obs != nil {
			child := c.Obs.Child()
			children[i] = child
			ccfg.Obs = child
			ccfg.Storage.Hook = child
		}
		cells[i].Run(ccfg)
		if child := children[i]; child != nil {
			child.Finish()
		}
	})
	var failed []*CellError
	for i := range cells {
		if e := errs[i]; e != nil {
			e.Exp, e.Label = exp, cells[i].Label
			failed = append(failed, e)
			continue
		}
		if child := children[i]; child != nil {
			c.Obs.Absorb(child)
		}
	}
	if len(failed) > 0 {
		return &SuiteError{Exp: exp, Cells: failed}
	}
	return nil
}

// recordKey memoizes makeRecords: the quick and full suites ask for the same
// (seed, n) dataset from many cells (every Table-1 method at one N, plus any
// experiment sharing cfg.N), and generation — rejection-sampled uniqueness
// plus a sort — dwarfs a memcpy.
type recordKey struct {
	seed int64
	n    int
}

type recordEntry struct {
	once sync.Once
	recs []core.Record
}

// recordCache holds one immutable canonical slice per (seed, n). It grows
// with the set of distinct datasets a process requests, which for the bench
// binaries is a handful; entries are never evicted.
var recordCache sync.Map // recordKey → *recordEntry
