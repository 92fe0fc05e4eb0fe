package bench

import (
	"fmt"
	"strings"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/rum"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The walsweep experiment prices durability: the same write-heavy workload
// against write-ahead-logged structures (internal/wal), sweeping the
// group-commit batch. Batch 1 syncs every mutation — the strictest contract
// at the steepest update-overhead tax; larger batches amortize one log
// append over the whole group. Each cell is measured two ways:
//
//   - clean: cost-unit throughput (operations per 1000 medium-weighted cost
//     units — deterministic, unlike wall-clock) and the per-op cost
//     distribution (p50/p99/max), plus the log's own ledger: syncs,
//     commits, checkpoints, appended pages and bytes;
//   - faulted: seeded crash trials (faults.CheckCrash) holding the logged
//     structure to DurableToCommit — every record the log reported
//     committed must be served back after recovery from the torn image.
//
// The sweep makes the RUM trade concrete: syncs fall roughly as 1/batch and
// throughput recovers accordingly, while the crash trials pin the
// contract — group commit cheapens durability without weakening it. What
// moves instead is the un-committed tail: at batch B, up to B-1 acknowledged
// records may be lost to a crash, which is exactly what the checker's
// committed watermark (not its acked count) licenses.

// walsweepBatches is the group-commit sweep, batch 1 first: later rows
// render their throughput as a multiple of the sync-every-op baseline.
var walsweepBatches = []int{1, 4, 8, 32, 128}

const (
	// walsweepCheckpointEvery bounds the overlay between checkpoints; small
	// enough that every cell exercises segment recycling inside its op
	// budget, large enough that checkpoints stay rare next to commits.
	walsweepCheckpointEvery = 1024
	// walsweepTrials is the seeded crash-trial count per cell.
	walsweepTrials = 6
)

// walSubjects are the loggable structures under one log config, held to
// DurableToCommit by the crash trials.
func walSubjects(wcfg wal.Config) []faults.Subject {
	lsmCfg := lsm.Config{MemtableRecords: 1024, SizeRatio: 10}
	return []faults.Subject{
		{
			Name: "btree",
			Open: func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewBTree(p, btree.Config{}, wcfg) },
			Reopen: func(p *storage.BufferPool) (core.AccessMethod, error) {
				return wal.RecoverBTree(p, btree.Config{}, wcfg)
			},
			Durability: faults.DurableToCommit,
		},
		{
			Name:       "lsm",
			Open:       func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewLSM(p, lsmCfg, wcfg) },
			Reopen:     func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.RecoverLSM(p, lsmCfg, wcfg) },
			Durability: faults.DurableToCommit,
		},
	}
}

// WALRow is one (structure, commit batch) cell.
type WALRow struct {
	Method string
	Batch  int
	// Point is the measured phase's RUM point; its U column carries the
	// log's write-amplification tax.
	Point rum.Point
	// CostProfile is the measured phase's cost-unit throughput and per-op
	// cost distribution: the shape of the sync tax (paid per op at batch 1,
	// concentrated into spikes at larger batches).
	CostProfile
	// The log's own measured-phase ledger.
	Syncs, Commits, Checkpoints, LogPages, LogBytes uint64
	// Crash-trial tallies under faults.DurableToCommit.
	Trials, Crashed, Recovered, Loud, Violated int
}

// WALSweepResult is the rendered walsweep experiment.
type WALSweepResult struct {
	Ops  int
	Rows []WALRow
}

// RunWALSweep measures every (structure, batch) cell.
func RunWALSweep(cfg Config) WALSweepResult {
	cfg.Defaults()
	cfg.smallPool()
	// The sweep runs on flash: the SSD's 5:1 write:read cost asymmetry (§2)
	// is what makes the sync tax — one page write per commit — visible
	// against the structure's own traffic. RAM's symmetric costs mute it.
	cfg.Storage.Medium = storage.SSD
	rows := make([]WALRow, 2*len(walsweepBatches))
	cells := make([]Cell, len(rows))
	for bi, batch := range walsweepBatches {
		for si, sub := range walSubjects(wal.Config{CommitBatch: batch, CheckpointEvery: walsweepCheckpointEvery}) {
			idx, sub, batch := si*len(walsweepBatches)+bi, sub, batch
			cells[idx] = Cell{
				Label: fmt.Sprintf("%s/b=%d", sub.Name, batch),
				Run:   func(ccfg Config) { rows[idx] = runWALCell(ccfg, sub, batch) },
			}
		}
	}
	cfg.runCells("walsweep", cells)
	return WALSweepResult{Ops: cfg.Ops, Rows: rows}
}

func runWALCell(cfg Config, sub faults.Subject, batch int) WALRow {
	row := WALRow{Method: sub.Name, Batch: batch}

	pool := methods.NewPool(cfg.Storage, nil)
	m, err := sub.Open(pool)
	if err != nil {
		panic(fmt.Sprintf("walsweep: build %s: %v", sub.Name, err))
	}
	lg := m.(*wal.Logged)
	am := core.Instrument(lg)
	cfg.observe(am, fmt.Sprintf("wal/%s/b=%d", sub.Name, batch))
	// The log taxes writes; measure where it hurts.
	gen := preload(cfg, am, workload.WriteHeavy, "walsweep: "+sub.Name)

	start := am.Meter().Snapshot()
	before := lg.Stats()
	row.CostProfile = profileCost(am, pool.Device(), gen, cfg.Ops)
	row.Point = rum.PointOf(am.Meter().Diff(start), am.Size())
	after := lg.Stats()
	row.Syncs = after.Syncs - before.Syncs
	row.Commits = after.Commits - before.Commits
	row.Checkpoints = after.Checkpoints - before.Checkpoints
	row.LogPages = after.LogPagesWritten - before.LogPagesWritten
	row.LogBytes = after.LogBytesWritten - before.LogBytesWritten

	// Faulted phase: seeded crash trials against the DurableToCommit
	// contract, on the checker's own small substrate.
	for t := 0; t < walsweepTrials; t++ {
		res := faults.CheckCrash(faults.CheckConfig{Seed: uint64(cfg.Seed) + uint64(t)}, sub)
		row.Trials++
		switch res.Verdict {
		case faults.Recovered:
			row.Crashed++
			row.Recovered++
		case faults.FailedLoudly:
			row.Crashed++
			row.Loud++
		case faults.Violated:
			row.Crashed++
			row.Violated++
		}
	}
	return row
}

// Render prints the sweep table plus one crash-trial line per cell.
func (r WALSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WAL sweep: group-commit batch vs. the durability tax\n")
	fmt.Fprintf(&b, "write-ahead-logged structures on SSD (read 4, write 20 per page), write-heavy\n")
	fmt.Fprintf(&b, "mix, %d measured ops; every mutation is framed into the log before it is\n", r.Ops)
	fmt.Fprintf(&b, "acknowledged; checkpoint every %d overlay records; ops/kcost = ops per 1000\n", walsweepCheckpointEvery)
	fmt.Fprintf(&b, "medium-weighted cost units\n\n")
	base := map[string]float64{}
	for _, row := range r.Rows {
		if row.Batch == 1 {
			base[row.Method] = row.OpsPerKCost
		}
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		speedup := "-"
		if b1 := base[row.Method]; b1 > 0 {
			speedup = fmt.Sprintf("%.2fx", row.OpsPerKCost/b1)
		}
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%d", row.Batch),
			fmt.Sprintf("%.1f", row.OpsPerKCost),
			speedup,
			fmt.Sprintf("%d", row.CostP50),
			fmt.Sprintf("%d", row.CostP99),
			fmt.Sprintf("%d", row.CostMax),
			fmt.Sprintf("%d", row.Syncs),
			fmt.Sprintf("%d", row.Commits),
			fmt.Sprintf("%d", row.Checkpoints),
			fmt.Sprintf("%d", row.LogPages),
			fmtBytes(float64(row.LogBytes)),
			fmt.Sprintf("%.2f", row.Point.U),
		})
	}
	b.WriteString(table(
		[]string{"method", "batch", "ops/kcost", "vs-b1", "cost-p50", "p99", "max", "syncs", "commits", "ckpts", "log-pages", "log-bytes", "UO"},
		rows,
	))
	b.WriteString("\nCrash trials (durable-to-commit: every committed record must survive reopen):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-5s b=%-3d  %d trials: %d crashed, %d recovered, %d failed-loudly, %d violated\n",
			row.Method, row.Batch, row.Trials, row.Crashed, row.Recovered, row.Loud, row.Violated)
	}
	b.WriteString("\nSyncs fall roughly as 1/batch and cost-unit throughput recovers accordingly,\nwhile the crash trials hold every cell to the same contract: group commit\ncheapens durability without weakening it. What grows instead is the\nacknowledged-but-uncommitted tail a crash may lose — up to batch-1 records,\nexactly what the committed watermark (not the acked count) licenses. At\nbatch=1 the p50 IS the sync: every op pays the log append; large batches\npush the same traffic into the tail as rare commit and checkpoint spikes.\n")
	return b.String()
}
