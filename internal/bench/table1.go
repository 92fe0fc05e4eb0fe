package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/methods"
)

// Table1Row is one (method, N) cell set of Table 1: measured bulk-creation
// I/O, index size, and per-operation physical read/write bytes for point
// queries, range queries of result size m, and inserts.
type Table1Row struct {
	Method     string
	N          int
	M          int     // range result size
	BulkBytes  uint64  // physical bytes moved to build (incl. external sort)
	AuxBytes   uint64  // index size (everything beyond the base data)
	SpaceAmp   float64 // MO
	PointRead  float64 // avg physical bytes read per point query
	RangeRead  float64 // avg physical bytes read per range query
	InsertCost float64 // avg physical bytes written+read per insert
}

// Table1Result is the measured Table 1.
type Table1Result struct {
	Ns   []int
	M    int
	Rows []Table1Row
}

// sortCharged lists methods whose bulk creation requires sorted input, so
// the harness charges an external sort first (Table 1's footnote: "bulk
// loading requires sorting").
var sortCharged = map[string]bool{
	"btree":         true,
	"sorted-column": true,
	"zonemap":       true,
	"lsm-level":     true,
	"lsm-tier":      true,
}

// table1Methods is the cast of Table 1: four access methods plus the two
// base-data organizations.
var table1Methods = []string{"btree", "hash", "zonemap", "lsm-level", "sorted-column", "unsorted-column"}

// RunTable1 measures every Table 1 cell empirically: each structure is bulk
// created at size N (charging external sorting where the model requires it),
// then probed with point queries, range queries of result size m, and
// inserts, on a cold-ish buffer pool of MEM pages. Every (N, method) pair is
// an independent run cell executed on cfg.Runner; rows are assembled in
// enumeration order.
func RunTable1(cfg Config, ns []int, m int) Table1Result {
	cfg.Defaults()
	if cfg.Storage.PoolPages == 0 {
		// MEM must be small relative to N, or the buffer pool hides the I/O
		// costs Table 1 is about.
		cfg.Storage.PoolPages = 4
	}
	if len(ns) == 0 {
		ns = []int{1 << 14, 1 << 16, 1 << 18}
	}
	if m <= 0 {
		m = 256
	}
	res := Table1Result{Ns: ns, M: m}
	var cells []Cell
	var rows []*Table1Row
	for _, n := range ns {
		for _, name := range table1Methods {
			n, name := n, name
			row := new(Table1Row)
			rows = append(rows, row)
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/N=%d", name, n),
				Run: func(ccfg Config) {
					recs := makeRecords(ccfg.Seed, n)
					*row = runTable1Cell(ccfg, name, recs, m)
				},
			})
		}
	}
	cfg.runCells("table1", cells)
	for _, row := range rows {
		res.Rows = append(res.Rows, *row)
	}
	return res
}

const table1Queries = 300

func runTable1Cell(cfg Config, name string, recs []core.Record, m int) Table1Row {
	spec, err := methods.Lookup(cfg.Storage, name)
	if err != nil {
		panic(err)
	}
	am := spec.New()
	cfg.observe(am, name)
	row := Table1Row{Method: name, N: len(recs), M: m}

	// --- Bulk creation ---
	loadRecs := make([]core.Record, len(recs))
	copy(loadRecs, recs)
	start := am.Meter().Snapshot()
	if sortCharged[name] {
		// The external sort charges am's meter outside any Instrumented
		// operation; wrap it in an explicit span so traces stay conservative
		// (span deltas sum to the meter totals).
		if cfg.Obs != nil {
			cfg.Obs.BeginOp("extsort")
		}
		extsort.Sort(loadRecs, poolPages(cfg), pageSize(cfg), am.Meter())
		if cfg.Obs != nil {
			cfg.Obs.EndOp("extsort")
		}
	}
	if err := am.BulkLoad(loadRecs); err != nil {
		panic(fmt.Sprintf("table1: bulk load %s: %v", name, err))
	}
	am.Flush()
	d := am.Meter().Diff(start)
	row.BulkBytes = d.PhysicalRead() + d.PhysicalWritten()

	// --- Index size ---
	size := am.Size()
	row.AuxBytes = size.AuxBytes
	row.SpaceAmp = size.SpaceAmplification()

	rng := rand.New(rand.NewSource(cfg.Seed + 77))

	// Warm-up churn: bring the structure to a steady state (the LSM gets a
	// memtable and young runs, pages age in the pool) before measuring.
	for i := 0; i < len(recs)/10; i++ {
		r := recs[rng.Intn(len(recs))]
		am.Update(r.Key, r.Value+1)
	}
	am.Flush()

	// --- Point queries (hits) ---
	start = am.Meter().Snapshot()
	for i := 0; i < table1Queries; i++ {
		k := recs[rng.Intn(len(recs))].Key
		am.Get(k)
	}
	d = am.Meter().Diff(start)
	row.PointRead = float64(d.PhysicalRead()) / table1Queries

	// --- Range queries of result size m ---
	start = am.Meter().Snapshot()
	ranges := table1Queries / 10
	for i := 0; i < ranges; i++ {
		lo := rng.Intn(len(recs) - m)
		from, to := recs[lo].Key, recs[lo+m-1].Key
		am.RangeScan(from, to, func(core.Key, core.Value) bool { return true })
	}
	d = am.Meter().Diff(start)
	row.RangeRead = float64(d.PhysicalRead()) / float64(ranges)

	// --- Inserts (fresh keys) ---
	start = am.Meter().Snapshot()
	inserted := 0
	for i := 0; inserted < table1Queries; i++ {
		k := rng.Uint64() >> 24
		if err := am.Insert(k, rng.Uint64()>>1); err == nil {
			inserted++
		}
	}
	am.Flush()
	d = am.Meter().Diff(start)
	row.InsertCost = float64(d.PhysicalWritten()+d.PhysicalRead()) / table1Queries
	return row
}

func pageSize(cfg Config) int {
	if cfg.Storage.PageSize > 0 {
		return cfg.Storage.PageSize
	}
	return 4096
}

func poolPages(cfg Config) int {
	if cfg.Storage.PoolPages > 0 {
		return cfg.Storage.PoolPages
	}
	return 64
}

// Winners summarizes which method won each column at the largest N — the
// "there is no single winner" observation under Table 1.
func (r Table1Result) Winners() map[string]string {
	if len(r.Rows) == 0 {
		return nil
	}
	maxN := 0
	for _, row := range r.Rows {
		if row.N > maxN {
			maxN = row.N
		}
	}
	// The paper's winner statements compare the four access methods; the two
	// raw column organizations are baselines.
	indexes := map[string]bool{"btree": true, "hash": true, "zonemap": true, "lsm-level": true}
	best := func(metric func(Table1Row) float64) string {
		name, bestV := "", 0.0
		for _, row := range r.Rows {
			if row.N != maxN || !indexes[row.Method] {
				continue
			}
			v := metric(row)
			if name == "" || v < bestV {
				name, bestV = row.Method, v
			}
		}
		return name
	}
	return map[string]string{
		"index_size":  best(func(r Table1Row) float64 { return float64(r.AuxBytes) }),
		"point_query": best(func(r Table1Row) float64 { return r.PointRead }),
		"range_query": best(func(r Table1Row) float64 { return r.RangeRead }),
		"insert":      best(func(r Table1Row) float64 { return r.InsertCost }),
		"bulk_create": best(func(r Table1Row) float64 { return float64(r.BulkBytes) }),
	}
}

// Render prints the measured Table 1 in the paper's layout.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (measured): physical bytes per operation, range result m=%d\n\n", r.M)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%d", row.N),
			fmtBytes(float64(row.BulkBytes)),
			fmtBytes(float64(row.AuxBytes)),
			fmt.Sprintf("%.3f", row.SpaceAmp),
			fmtBytes(row.PointRead),
			fmtBytes(row.RangeRead),
			fmtBytes(row.InsertCost),
		})
	}
	b.WriteString(table(
		[]string{"method", "N", "bulk-create", "index-size", "MO", "point-query", "range-query", "insert"},
		rows,
	))
	b.WriteString("\nColumn winners at the largest N (paper: \"there is no single winner\"):\n")
	w := r.Winners()
	for _, col := range []string{"bulk_create", "index_size", "point_query", "range_query", "insert"} {
		fmt.Fprintf(&b, "  %-12s %s\n", col, w[col])
	}
	return b.String()
}
