package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The qdsweep experiment prices queue depth: the same write-heavy workload
// against each page-based structure on a multi-queue SSD (storage.MQSSD,
// 8 channels), sweeping the pool's I/O batch. Batch 1 submits every page
// alone — the flat Aggarwal–Vitter model every other experiment uses; larger
// batches let the pool's vectored write-back (and the structures' readahead
// and streaming paths) fill the device's channels, and the cost model charges
// the batch at its achieved depth: ceil(n/channels) waves instead of n.
//
// The sweep asks the RUM question the flat model cannot: does the ranking of
// structures survive the medium? A structure whose traffic arrives in runs
// (the LSM's flush and compaction streams) amortizes almost ideally; one
// whose dirty pages trickle out a page at a time (the B-tree under random
// updates) only batches what the eviction group happens to gather. Each cell
// reports cost-unit throughput (ops per 1000 medium-weighted cost units),
// the per-op cost distribution, and the batch ledger itself: submissions,
// batched pages, and the achieved depth they imply.

// qdsweepBatches is the I/O batch sweep, batch 1 first: later rows render
// their throughput as a multiple of the depth-1 baseline. 8 saturates the
// MQSSD's channels in one wave; 32 needs four.
var qdsweepBatches = []int{1, 4, 8, 32}

// qdSubject is one structure under test: how to build it over a pool.
type qdSubject struct {
	name  string
	build func(pool *storage.BufferPool) (core.AccessMethod, error)
}

func qdSubjects() []qdSubject {
	return []qdSubject{
		{
			name: "btree",
			build: func(p *storage.BufferPool) (core.AccessMethod, error) {
				return btree.New(p, btree.Config{})
			},
		},
		{
			name: "lsm-level",
			build: func(p *storage.BufferPool) (core.AccessMethod, error) {
				return lsm.New(p, lsm.Config{MemtableRecords: 1024, SizeRatio: 10}), nil
			},
		},
		{
			name: "lsm-tier",
			build: func(p *storage.BufferPool) (core.AccessMethod, error) {
				return lsm.New(p, lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Tiering: true}), nil
			},
		},
	}
}

// QDRow is one (structure, I/O batch) cell.
type QDRow struct {
	Method string
	Batch  int
	// CostProfile is the measured phase's cost-unit throughput and per-op
	// cost distribution: batching does not remove the write-back bursts, it
	// compresses their price.
	CostProfile
	// The measured phase's device ledger.
	PageReads, PageWrites uint64
	// The batch ledger: amortized submissions, the pages they carried, and
	// the mean achieved depth (BatchedPages/Batches; 0 when nothing batched).
	Batches, BatchedPages uint64
}

// AvgDepth is the mean achieved queue depth of the cell's batches.
func (r QDRow) AvgDepth() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.BatchedPages) / float64(r.Batches)
}

// QDSweepResult is the rendered qdsweep experiment.
type QDSweepResult struct {
	Ops  int
	Rows []QDRow
}

// RunQDSweep measures every (structure, batch) cell.
func RunQDSweep(cfg Config) QDSweepResult {
	cfg.Defaults()
	if cfg.Storage.PoolPages == 0 {
		// Default pool (64 pages): big enough for dirty frames to accumulate
		// into full-width eviction groups and for readahead to have room,
		// small enough that the device still sees the structures' traffic.
		cfg.Storage.PoolPages = 64
	}
	// The sweep runs on the multi-queue SSD: same per-page service times as
	// the flat SSD (read 4, write 20), so any throughput difference against
	// the other experiments is attributable to batching alone.
	cfg.Storage.Medium = storage.MQSSD
	subjects := qdSubjects()
	rows := make([]QDRow, len(subjects)*len(qdsweepBatches))
	cells := make([]Cell, 0, len(rows))
	for si, sub := range subjects {
		for bi, batch := range qdsweepBatches {
			idx, sub, batch := si*len(qdsweepBatches)+bi, sub, batch
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/b=%d", sub.name, batch),
				Run:   func(ccfg Config) { rows[idx] = runQDCell(ccfg, sub, batch) },
			})
		}
	}
	cfg.runCells("qdsweep", cells)
	return QDSweepResult{Ops: cfg.Ops, Rows: rows}
}

func runQDCell(cfg Config, sub qdSubject, batch int) QDRow {
	row := QDRow{Method: sub.name, Batch: batch}

	pool := methods.NewPool(cfg.Storage, nil)
	pool.SetIOBatch(batch) // batch 1 disables the vectored paths entirely
	dev := pool.Device()
	am, err := sub.build(pool)
	if err != nil {
		panic(fmt.Sprintf("qdsweep: build %s: %v", sub.name, err))
	}
	in := core.Instrument(am)
	cfg.observe(in, fmt.Sprintf("qd/%s/b=%d", sub.name, batch))
	// Write-back traffic is what batching amortizes.
	gen := preload(cfg, in, workload.WriteHeavy, "qdsweep: "+sub.name)

	before := dev.Stats()
	row.CostProfile = profileCost(in, dev, gen, cfg.Ops)
	after := dev.Stats()
	row.PageReads = after.PageReads - before.PageReads
	row.PageWrites = after.PageWrites - before.PageWrites
	row.Batches = after.Batches - before.Batches
	row.BatchedPages = after.BatchedPages - before.BatchedPages
	return row
}

// Render prints the sweep table plus the re-ranking summary.
func (r QDSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Queue-depth sweep: I/O batching on a multi-queue SSD\n")
	fmt.Fprintf(&b, "page structures on MQSSD (read 4, write 20 per page, 8 channels), write-heavy\n")
	fmt.Fprintf(&b, "mix, %d measured ops; a batch of n pages costs ceil(n/8) waves instead of n,\n", r.Ops)
	fmt.Fprintf(&b, "so achieved depth — not raw traffic — sets the bill; ops/kcost = ops per 1000\n")
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
		depth := "-"
		if row.Batches > 0 {
			depth = fmt.Sprintf("%.1f", row.AvgDepth())
		}
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%d", row.Batch),
			fmt.Sprintf("%.1f", row.OpsPerKCost),
			speedup,
			fmt.Sprintf("%d", row.CostP50),
			fmt.Sprintf("%d", row.CostP99),
			fmt.Sprintf("%d", row.CostMax),
			fmt.Sprintf("%d", row.PageReads),
			fmt.Sprintf("%d", row.PageWrites),
			fmt.Sprintf("%d", row.Batches),
			fmt.Sprintf("%d", row.BatchedPages),
			depth,
		})
	}
	b.WriteString(table(
		[]string{"method", "batch", "ops/kcost", "vs-b1", "cost-p50", "p99", "max", "reads", "writes", "batches", "batched-pg", "depth"},
		rows,
	))

	// Re-ranking summary: the flat model's verdict is the b=1 column; the
	// deep-queue verdict is the largest batch. Render both rankings and the
	// head-to-head ratio so a shift in either is visible at a glance.
	maxBatch := 0
	for _, row := range r.Rows {
		if row.Batch > maxBatch {
			maxBatch = row.Batch
		}
	}
	ranking := func(batch int) string {
		type entry struct {
			name string
			ops  float64
		}
		var es []entry
		for _, row := range r.Rows {
			if row.Batch == batch {
				es = append(es, entry{row.Method, row.OpsPerKCost})
			}
		}
		slices.SortStableFunc(es, func(a, b entry) int {
			switch {
			case a.ops > b.ops:
				return -1
			case a.ops < b.ops:
				return 1
			}
			return 0
		})
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = fmt.Sprintf("%s (%.1f)", e.name, e.ops)
		}
		return strings.Join(parts, " > ")
	}
	b.WriteString("\nRanking by ops/kcost:\n")
	fmt.Fprintf(&b, "  flat model (b=1):   %s\n", ranking(1))
	fmt.Fprintf(&b, "  deep queues (b=%d): %s\n", maxBatch, ranking(maxBatch))
	b.WriteString("\nAt depth 1 this is the flat SSD every other experiment prices — same service\ntimes, same ranking. Deep queues repay structures in proportion to how much\nof their traffic arrives in runs: the LSM's flush and compaction streams\nbatch at full channel width, while the B-tree's random dirty pages only\nbatch what the eviction group gathers. The medium, not just the workload,\nis part of the access method's cost — which is the RUM conjecture's point\nrestated at the device interface.\n")
	return b.String()
}
