// Analytics scenario: a scan-heavy warehouse workload (wide range
// predicates over a fact table, plus a low-cardinality categorical filter)
// served by space-optimized structures — zone maps pruning partitions, a
// compressed bitmap index answering categorical queries, and a sorted
// column — against a full-scan baseline. The space corner of the RUM
// triangle: tiny auxiliary structures buying scan pruning.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/zonemap"
)

const (
	rows    = 1 << 17
	queries = 200
	span    = 1 << 10 // range width in row positions
)

func main() {
	// The fact table: rows keyed by a (clustered) row id; the value carries
	// a 16-way category code, the kind of column bitmaps excel at.
	rng := rand.New(rand.NewSource(42))
	recs := make([]core.Record, rows)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: uint64(rng.Intn(16))}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })

	heap := core.Instrument(column.NewUnsorted(nil))
	sorted := core.Instrument(column.NewSorted(nil))
	zm := core.Instrument(zonemap.New(512, nil))
	bm := core.Instrument(bitmap.New(bitmap.Config{Cardinality: 16, MergeThreshold: 1024}, nil))
	for _, am := range []*core.Instrumented{heap, sorted, zm, bm} {
		if err := am.BulkLoad(recs); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("Warehouse fact table: %d rows, %d range queries of ~%d rows each\n\n", rows, queries, span)
	fmt.Printf("%-18s %14s %14s %10s\n", "structure", "bytes read/qry", "index bytes", "MO")

	type cand struct {
		name string
		am   *core.Instrumented
	}
	for _, c := range []cand{
		{"full scan (heap)", heap},
		{"sorted column", sorted},
		{"zonemap P=512", zm},
	} {
		qrng := rand.New(rand.NewSource(7))
		before := c.am.Meter().Snapshot()
		for q := 0; q < queries; q++ {
			lo := uint64(qrng.Intn(rows - span))
			c.am.RangeScan(lo, lo+span-1, func(core.Key, core.Value) bool { return true })
		}
		d := c.am.Meter().Diff(before)
		size := c.am.Size()
		fmt.Printf("%-18s %14s %14d %10.4f\n",
			c.name, fmtBytes(float64(d.PhysicalRead())/queries), size.AuxBytes, size.SpaceAmplification())
	}

	// Categorical query: "rows where category = 7" — the bitmap's home turf.
	fmt.Printf("\nCategorical filter (category = 7 over all %d rows):\n", rows)
	bmInner := bm.Unwrap().(*bitmap.Index)
	before := bm.Meter().Snapshot()
	matches := bmInner.Rows(7, func(uint64) bool { return true })
	bmBytes := bm.Meter().Diff(before).PhysicalRead()

	before = heap.Meter().Snapshot()
	heapMatches := 0
	heap.RangeScan(0, ^core.Key(0), func(_ core.Key, v core.Value) bool {
		if v == 7 {
			heapMatches++
		}
		return true
	})
	heapBytes := heap.Meter().Diff(before).PhysicalRead()

	fmt.Printf("  bitmap index: %d matches, %s read, index stores %.2f bytes/row\n",
		matches, fmtBytes(float64(bmBytes)), float64(bm.Size().Total())/float64(rows))
	fmt.Printf("  full scan:    %d matches, %s read\n", heapMatches, fmtBytes(float64(heapBytes)))
	fmt.Printf("  pruning factor: %.1fx less data read\n", float64(heapBytes)/float64(bmBytes))

	fmt.Println(`
Reading the result:
  - The zone map answers range queries reading only the qualifying
    partitions plus a few KiB of summaries, with an index thousands of times
    smaller than a B+-tree would be: read pruning almost for free in space.
  - The compressed bitmap answers the categorical filter reading only one
    value's bitvector instead of the whole table.
  - The price is on the other RUM axes: in-place updates to compressed
    bitmaps need delta absorption and merging, and zone maps give up
    point-query speed — space-optimized, per the conjecture, not free.`)
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
