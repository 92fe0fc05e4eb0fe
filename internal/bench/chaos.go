package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/rum"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The chaos experiment is the Section-5 "what happens off the happy path"
// companion to Table 1: the same page-backed access methods, the same
// balanced workload, but the device misbehaves — transient and permanent
// read/write faults, torn writes, and a crash trial. Each method is measured
// three ways:
//
//   - clean: the usual RUM point, as a baseline;
//   - degraded: the same workload with the fault plan armed and the buffer
//     pool retrying transients. A failed transfer charges no meter traffic,
//     so when every transient is repaired within the retry budget the
//     degraded RUM point equals the clean one — the paper's accounting is
//     preserved, and the price of tolerance shows in the retry ledger
//     instead. Permanent faults and exhausted budgets do move the point:
//     they surface as failed ops, misses, and unflushable pages;
//   - crash: a seeded crash-consistency check (faults.CheckCrash) holding the
//     method to its declared durability contract.
//
// Faults are armed after the preload: the degraded phase isolates steady-state
// behaviour under a failing device, while build-time crashes are exactly what
// the crash trial exercises. Each cell salts the plan with the method name, so
// cells draw independent fault streams that do not depend on worker count.

// chaosRetryBudget is the pool's transparent retry allowance for transient
// faults during the degraded phase.
const chaosRetryBudget = 3

// chaosSubjects is the cast: the Table-1 methods that live on the simulated
// device (the in-memory structures have no device to degrade). The B+-tree
// and the hash index are the catalog's rows under opt, each held to the
// contract it declares there. The LSM runs with its manifest enabled so the
// crash trial can hold it to DurableToFlush — a configuration no catalog
// user builds; the manifest's checkpoint writes are charged like any other
// traffic, visible in the degraded UO column.
func chaosSubjects(opt methods.Options) []faults.Subject {
	var subs []faults.Subject
	for _, s := range methods.Catalog(opt) {
		if s.Name == "btree" || s.Name == "hash" {
			subs = append(subs, s.Subject)
		}
	}
	lsmCfg := lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Manifest: true}
	return append(subs, faults.Subject{
		Name:       "lsm-level",
		Open:       func(p *storage.BufferPool) (core.AccessMethod, error) { return lsm.New(p, lsmCfg), nil },
		Reopen:     func(p *storage.BufferPool) (core.AccessMethod, error) { return lsm.Recover(p, lsmCfg) },
		Durability: faults.DurableToFlush,
	})
}

// ChaosRow is one method's measurements under the chaos plan.
type ChaosRow struct {
	Method     string
	Clean      rum.Point // RUM point on a healthy device
	Degraded   rum.Point // RUM point with the fault plan armed
	Faults     faults.Stats
	Pool       storage.PoolStats // degraded-phase pool ledger (retries etc.)
	FailedOps  int               // inserts that surfaced an error to the workload
	Crash      faults.CheckResult
	Durability faults.Durability
}

// ChaosResult is the rendered chaos experiment.
type ChaosResult struct {
	Plan        faults.Plan
	RetryBudget int
	Rows        []ChaosRow
}

// RunChaos measures every chaos subject under plan. An inactive plan gets a
// default degradation profile so `-exp chaos` alone shows something: 1%
// transient faults on both paths, half of the write faults torn.
func RunChaos(cfg Config, plan faults.Plan) ChaosResult {
	cfg.Defaults()
	cfg.smallPool()
	if !plan.Active() {
		plan = faults.Plan{Seed: uint64(cfg.Seed), PRead: 0.01, PWrite: 0.01, PTorn: 0.5}
	}
	res := ChaosResult{Plan: plan, RetryBudget: chaosRetryBudget}
	subjects := chaosSubjects(cfg.Storage)
	rows := make([]ChaosRow, len(subjects))
	cells := make([]Cell, len(subjects))
	for i, sub := range subjects {
		i, sub := i, sub
		cells[i] = Cell{
			Label: sub.Name,
			Run:   func(ccfg Config) { rows[i] = runChaosCell(ccfg, sub, plan) },
		}
	}
	cfg.runCells("chaos", cells)
	res.Rows = rows
	return res
}

func runChaosCell(cfg Config, sub faults.Subject, plan faults.Plan) ChaosRow {
	row := ChaosRow{Method: sub.Name, Durability: sub.Durability}
	salted := plan.Salted(sub.Name)

	row.Clean, _, _, _ = chaosProfile(cfg, sub, faults.Plan{}, 0, sub.Name+"/clean")
	// The plan's crash point belongs to the crash trial below; the degraded
	// phase strips it so the profile measures degradation under faults, not
	// a latched device refusing every op after a mid-run crash.
	degraded := salted
	degraded.CrashAtWrite = 0
	var st core.OpStats
	row.Degraded, row.Faults, row.Pool, st = chaosProfile(cfg, sub, degraded, chaosRetryBudget, sub.Name+"/degraded")
	row.FailedOps = st.InsertFailures

	row.Crash = faults.CheckCrash(faults.CheckConfig{Seed: salted.Seed, CrashAtWrite: plan.CrashAtWrite}, sub)
	return row
}

// chaosProfile preloads the subject on a healthy device, then replays cfg.Ops
// workload operations with the plan armed (inactive plan = clean baseline)
// and returns the measured RUM point plus the fault and pool ledgers of the
// degraded phase.
func chaosProfile(cfg Config, sub faults.Subject, plan faults.Plan, retries int, label string) (rum.Point, faults.Stats, storage.PoolStats, core.OpStats) {
	opt := cfg.Storage
	opt.Faults = faults.Plan{} // armed below, after the preload
	pool := methods.NewPool(opt, nil)
	m, err := sub.Open(pool)
	if err != nil {
		panic(fmt.Sprintf("chaos: build %s: %v", sub.Name, err))
	}
	am := core.Instrument(m)
	cfg.observe(am, label)
	gen := preload(cfg, am, workload.Balanced, "chaos: "+sub.Name)

	var injector *faults.Injector
	if plan.Active() {
		injector = faults.New(plan)
		pool.Device().SetInjector(injector)
		pool.SetRetryBudget(retries)
	}
	poolBefore := pool.Stats()
	start := am.Meter().Snapshot()
	var st core.OpStats
	for i := 0; i < cfg.Ops; i++ {
		core.Apply(am, gen.Next(), &st)
	}
	am.Flush()
	point := rum.PointOf(am.Meter().Diff(start), am.Size())

	var fstats faults.Stats
	if injector != nil {
		fstats = injector.Stats()
	}
	pstats := pool.Stats()
	pstats.Retries -= poolBefore.Retries
	pstats.RetryFailures -= poolBefore.RetryFailures
	pstats.FlushFailures -= poolBefore.FlushFailures
	return point, fstats, pstats, st
}

// Render prints the chaos table plus one crash-trial line per method.
func (r ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos (Section 5): Table-1 methods on a degraded device\n")
	fmt.Fprintf(&b, "plan: %s   pool retry budget: %d\n\n", r.Plan, r.RetryBudget)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		f := row.Faults
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%.2f", row.Clean.R),
			fmt.Sprintf("%.2f", row.Clean.U),
			fmt.Sprintf("%.2f", row.Degraded.R),
			fmt.Sprintf("%.2f", row.Degraded.U),
			fmt.Sprintf("%d/%d", f.TransientReads, f.TransientWrites),
			fmt.Sprintf("%d", f.PermanentReads+f.PermanentWrites),
			fmt.Sprintf("%d", f.Torn),
			fmt.Sprintf("%d(%d)", row.Pool.Retries, row.Pool.RetryFailures),
			fmt.Sprintf("%d", row.FailedOps),
		})
	}
	b.WriteString(table(
		[]string{"method", "RO", "UO", "RO'", "UO'", "tr-r/w", "perm", "torn", "retries(fail)", "failed-ops"},
		rows,
	))
	b.WriteString("\nCrash trial (seeded crash point, reopen from surviving image):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-16s %s\n", row.Method, row.Durability, row.Crash)
	}
	b.WriteString("\nRO/UO: clean device; RO'/UO': fault plan armed. Failed transfers charge\nno traffic, so fully-retried transients leave the RUM point unchanged —\nthe tolerance cost is the retry ledger; permanent faults and exhausted\nbudgets move the point via failed ops and lost pages.\n")
	return b.String()
}
