package bench

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Figure 2 on the real stack: level n−1 is a buffer pool, level n the HDD
// under it. Each structure's page references reach the device only through
// the pool, so growing the pool (raising MO(n−1)) is what lowers the reads
// and write-backs the device sees (RO(n), UO(n)).

// fig2Methods are the catalog rows the sweep measures: a structure that
// updates its pages in place and one that writes them out of place.
var fig2Methods = []string{"btree", "lsm-level"}

// fig2Fracs are the pool sizes swept, as fractions of the data pages.
var fig2Fracs = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75}

// fig2Mix is the measured traffic: zipf(1.2)-skewed gets and updates over
// the preloaded keys, so the record count, and with it MO's denominator,
// stays put.
var fig2Mix = ServeMix{Get: 0.75, Update: 0.25}

// Fig2Point is one sweep step: the pool's capacity and the overheads it
// leaves at both levels.
type Fig2Point struct {
	Frac   float64 // pool capacity as a fraction of the data pages
	Frames int     // pool frames: max(1, Frac × data pages)
	MO     float64 // MO(n−1): frames × page size ÷ base bytes
	Hit    float64 // pool hit rate over the measured ops
	RO     float64 // RO(n): device page reads per get
	UO     float64 // UO(n): pool write-backs per update
	// dev is the cell's device ledger over its whole life, bulk load
	// included: what an observer hooked to the cell must have seen.
	dev storage.DeviceStats
}

// Fig2Sweep is one structure's sweep of pool sizes.
type Fig2Sweep struct {
	Method   string
	Points   []Fig2Point
	Monotone bool // RO(n) non-increasing and MO(n−1) non-decreasing along the sweep
}

// Fig2Result is the measured Figure 2: growing the space overhead at one
// hierarchy level reduces the read and write overheads of the level below.
type Fig2Result struct {
	N, DataPages, Ops int
	Sweeps            []Fig2Sweep
}

// RunFig2 sweeps a buffer pool from 1% to 75% of the data pages over each
// structure on an HDD. Every point is a separate run: load, start cold, serve
// cfg.Ops requests, flush. On a flat medium a structure's page references do
// not depend on the pool's size, so LRU's stack property makes RO(n) fall as
// the pool grows; a sweep that is not Monotone names a structure whose
// references do.
func RunFig2(cfg Config) Fig2Result {
	cfg.Defaults()
	pageSize := cmp.Or(cfg.Storage.PageSize, 4096)
	res := Fig2Result{N: cfg.N, DataPages: cfg.N * core.RecordSize / pageSize, Ops: cfg.Ops}
	res.Sweeps = make([]Fig2Sweep, len(fig2Methods))
	var cells []Cell
	for si, name := range fig2Methods {
		res.Sweeps[si] = Fig2Sweep{Method: name, Points: make([]Fig2Point, len(fig2Fracs))}
		for pi, frac := range fig2Fracs {
			label := fmt.Sprintf("%s/pool=%.0f%%", name, frac*100)
			frames := max(1, int(frac*float64(res.DataPages)))
			cells = append(cells, Cell{Label: label, Run: func(ccfg Config) {
				p := runFig2Cell(ccfg, name, "fig2/"+label, frames)
				p.Frac = frac
				res.Sweeps[si].Points[pi] = p
			}})
		}
	}
	cfg.runCells("fig2", cells)
	for i := range res.Sweeps {
		s := &res.Sweeps[i]
		s.Monotone = true
		for j := 1; j < len(s.Points); j++ {
			if s.Points[j].RO > s.Points[j-1].RO+1e-9 || s.Points[j].MO < s.Points[j-1].MO {
				s.Monotone = false
			}
		}
	}
	return res
}

// runFig2Cell builds one structure over a pool of the given frames on an
// HDD, loads it, drops the pool so the run starts cold, and measures the
// served stream, holding every outcome to the stream's prediction.
func runFig2Cell(cfg Config, method, label string, frames int) Fig2Point {
	opt := cfg.Storage
	opt.Medium, opt.PoolPages = storage.HDD, frames
	spec, err := methods.Lookup(opt, method)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", label, err))
	}
	pool := methods.NewPool(opt, nil)
	dev := pool.Device()
	am, err := spec.Open(pool)
	if err != nil {
		panic(fmt.Sprintf("%s: open: %v", label, err))
	}
	in := core.Instrument(am)
	cfg.observe(in, label)
	gen := NewStreamGenDist(cfg.Seed, 0, fig2Mix, KeyDist{Kind: "zipf", Theta: 1.2})
	if err := in.BulkLoad(gen.InitRecords(cfg.N)); err != nil {
		panic(fmt.Sprintf("%s: load: %v", label, err))
	}
	in.Flush()
	pool.DropAll()

	devBefore, poolBefore := dev.Stats(), pool.Stats()
	gets, updates := 0, 0
	for range cfg.Ops {
		req, want := gen.Next()
		if got := serve.Exec(in, req); got != want {
			panic(fmt.Sprintf("%s: diverged on %+v: got %+v, want %+v", label, req, got, want))
		}
		if req.Op == serve.OpGet {
			gets++
		} else {
			updates++
		}
	}
	in.Flush()
	devAfter, poolAfter := dev.Stats(), pool.Stats()

	hits, misses := poolAfter.Hits-poolBefore.Hits, poolAfter.Misses-poolBefore.Misses
	return Fig2Point{
		Frames: frames,
		MO:     float64(frames*dev.PageSize()) / float64(in.Size().BaseBytes),
		Hit:    float64(hits) / float64(max(hits+misses, 1)),
		RO:     float64(devAfter.PageReads-devBefore.PageReads) / float64(max(gets, 1)),
		UO:     float64(poolAfter.WriteBacks-poolBefore.WriteBacks) / float64(max(updates, 1)),
		dev:    devAfter,
	}
}

// Render prints one table per structure.
func (r Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (measured): a buffer pool (level n-1) over an HDD (level n), %d records (%d data pages),\n", r.N, r.DataPages)
	fmt.Fprintf(&b, "%d ops per point (75%% get, 25%% update, zipf 1.2), each point a separate run started cold.\n", r.Ops)
	b.WriteString("Growing MO at level n-1 (the pool) lowers RO and UO at level n (the device):\n")
	for _, s := range r.Sweeps {
		fmt.Fprintf(&b, "\n%s\n", s.Method)
		rows := make([][]string, 0, len(s.Points))
		for _, p := range s.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", p.Frac*100),
				fmt.Sprintf("%d", p.Frames),
				fmt.Sprintf("%.3f", p.MO),
				fmt.Sprintf("%.1f%%", p.Hit*100),
				fmt.Sprintf("%.4f", p.RO),
				fmt.Sprintf("%.4f", p.UO),
			})
		}
		b.WriteString(table([]string{"pool", "frames", "MO(pool)", "hit(pool)", "disk reads/get", "write-backs/update"}, rows))
		if s.Monotone {
			b.WriteString("Monotone: MO(n-1) up ⇒ RO(n) down, as Figure 2 predicts.\n")
		} else {
			fmt.Fprintf(&b, "WARNING: %s is not monotone: its page references depend on the pool size.\n", s.Method)
		}
	}
	return b.String()
}
