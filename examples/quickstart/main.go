// Quickstart: build an access method, run a workload against it, and read
// its RUM profile — the three overheads of the RUM Conjecture measured on
// your own workload.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/rum"
	"repro/internal/workload"
)

func main() {
	// 1. Pick a structure from the catalog. Page-based structures run on a
	//    simulated device; Options sets the page size, buffer pool (the MEM
	//    of the paper's cost model), and medium.
	opt := methods.Options{PageSize: 4096, PoolPages: 16}
	spec, err := methods.Lookup(opt, "btree")
	if err != nil {
		log.Fatal(err)
	}
	store := spec.New()

	// 2. Use it like any key-value store.
	if err := store.Insert(42, 4200); err != nil {
		log.Fatal(err)
	}
	if v, ok := store.Get(42); ok {
		fmt.Printf("Get(42) = %d\n", v)
	}
	store.Update(42, 4300)
	store.RangeScan(0, 100, func(k core.Key, v core.Value) bool {
		fmt.Printf("scan: %d -> %d\n", k, v)
		return true
	})
	store.Delete(42)

	// 3. Profile it under a workload: 64k records, 20k mixed operations.
	gen := workload.New(workload.Config{
		Seed:       1,
		Mix:        workload.Balanced,
		InitialLen: 1 << 16,
		RangeLen:   1 << 30,
	})
	fresh := spec.New()
	prof, err := core.RunProfile(fresh, gen, 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRUM profile of %s under the balanced mix:\n", prof.Name)
	fmt.Printf("  read amplification  RO = %.2f\n", prof.Point.R)
	fmt.Printf("  write amplification UO = %.2f\n", prof.Point.U)
	fmt.Printf("  space amplification MO = %.3f\n", prof.Point.M)
	fmt.Printf("  ops: %d gets (%d hits), %d ranges (%d rows), %d inserts, %d updates, %d deletes\n",
		prof.Ops.Gets, prof.Ops.Hits, prof.Ops.Ranges, prof.Ops.RangeRows,
		prof.Ops.Inserts, prof.Ops.Updates, prof.Ops.Deletes)

	// 4. Compare a few structures in the RUM triangle: Figure 1's protocol,
	//    one profile per catalog row under the same traffic.
	profiles, err := bench.ProfileCatalog(bench.Config{Seed: 1, N: 1 << 14, Ops: 8000, Storage: opt},
		"quickstart", []string{"btree", "hash", "lsm-tier", "zonemap"}, workload.Balanced)
	if err != nil {
		log.Fatal(err)
	}
	var pts []bench.NamedPoint
	var raw []rum.Point
	for _, p := range profiles {
		pts = append(pts, bench.NamedPoint{Label: p.Name, Point: p.Point})
		raw = append(raw, p.Point)
	}
	ws := rum.RelativeWeights(raw)
	for i := range pts {
		w := ws[i]
		pts[i].W = &w
	}
	fmt.Println("\nWhere they sit in the RUM triangle (relative to each other):")
	fmt.Println(bench.RenderTriangle(pts, 45))
}
