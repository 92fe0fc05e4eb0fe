// Adaptive scenario: a workload that shifts from read-heavy to write-heavy
// to scan-heavy. Static structures are stuck at their point in the RUM
// space; the two adaptive designs of the paper react: database cracking
// accretes index structure where queries land, and the Section-5 morphing
// engine physically changes shape between phases.
package main

import (
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/cracking"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/workload"
)

const (
	preload  = 1 << 15
	phaseOps = 12000
)

func main() {
	// --- Part 1: cracking converges on a query region ---
	fmt.Println("Database cracking: 300 range queries against an unordered column")
	cr := core.Instrument(cracking.New(1<<20, nil))
	gen := workload.New(workload.Config{Seed: 3, Mix: workload.LookupOnly, InitialLen: preload})
	// Load in arrival (unsorted) order: cracking's whole point is to add
	// structure lazily, so don't hand it sorted data.
	recs := make([]core.Record, 0, preload)
	for _, op := range gen.InitialRecords() {
		recs = append(recs, core.Record{Key: op.Key, Value: op.Value})
	}
	if err := cr.Unwrap().(*cracking.Store).BulkLoad(recs); err != nil {
		log.Fatal(err)
	}
	keys := gen.LiveKeys()
	inner := cr.Unwrap().(*cracking.Store)
	for _, batch := range []int{1, 9, 40, 50, 100, 100} {
		before := cr.Meter().Snapshot()
		for q := 0; q < batch; q++ {
			lo := keys[(q*7919)%len(keys)]
			cr.RangeScan(lo, lo+(1<<28), func(core.Key, core.Value) bool { return true })
		}
		d := cr.Meter().Diff(before)
		fmt.Printf("  after %4d more queries: %8.0f KiB read/query, %5d pieces, %7d swaps so far\n",
			batch, float64(d.PhysicalRead())/float64(batch)/1024, inner.Pieces(), inner.Stats().Swaps)
	}

	// --- Part 2: morphing engine vs. static structures across phases ---
	fmt.Println("\nMorphing engine across three workload phases (read-heavy → write-heavy → scan-heavy):")
	opt := methods.Options{PoolPages: 16}
	morph, err := methods.NewMorphing(methods.Flavors(opt), 0, opt.Model(0))
	if err != nil {
		log.Fatal(err)
	}
	engines := []struct {
		name string
		am   core.AccessMethod
	}{
		{"morphing", morph},
		{"static btree", methods.NewBTree(opt, btree.Config{})},
		{"static lsm", methods.NewLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 8})},
	}
	phases := []struct {
		name string
		mix  workload.Mix
	}{
		{"read-heavy", workload.ReadHeavy},
		{"write-heavy", workload.WriteHeavy},
		{"scan-heavy", workload.ScanHeavy},
	}
	for _, e := range engines {
		w := core.Instrument(e.am)
		gen := workload.New(workload.Config{Seed: 5, Mix: workload.ReadHeavy, InitialLen: preload / 2, RangeLen: 1 << 30})
		if err := core.Preload(w.Unwrap(), gen); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s", e.name)
		var total uint64
		for _, ph := range phases {
			pgen := workload.New(workload.Config{Seed: 11, Mix: ph.mix, RangeLen: 1 << 30})
			core.SeedLive(pgen, w.Unwrap())
			before := w.Meter().Snapshot()
			var st core.OpStats
			for i := 0; i < phaseOps; i++ {
				core.Apply(w, pgen.Next(), &st)
			}
			w.Flush()
			d := w.Meter().Diff(before)
			moved := d.PhysicalRead() + d.PhysicalWritten()
			total += moved
			shape := ""
			if m, ok := e.am.(*methods.Morphing); ok {
				shape = " [" + m.CurrentFlavor() + "]"
			}
			fmt.Printf("  %s: %6.1f MiB%s", ph.name, float64(moved)/(1<<20), shape)
		}
		fmt.Printf("  | total %.1f MiB\n", float64(total)/(1<<20))
	}
	if m, ok := engines[0].am.(*methods.Morphing); ok {
		fmt.Printf("\nThe morphing engine migrated %d times — \"access methods that can\n"+
			"automatically and dynamically adapt to new workload requirements\" (Section 5).\n", m.Migrations())
	}
}
