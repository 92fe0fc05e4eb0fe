//go:build !racecheck

package btree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestTreeGetBatchAllocs pins the live group path, and Prefetch beside it,
// at zero allocations: their scratch is the tree's, and on a batching pool
// the read waves' is the pool's. (The racecheck build's pool asserts
// allocate by design, so this file is left out of it.)
func TestTreeGetBatchAllocs(t *testing.T) {
	for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
		tr, err := New(storage.NewBufferPool(storage.NewDevice(512, medium, nil), 64), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 5000; k++ {
			tr.Insert(k, k)
		}
		var (
			keys [40]core.Key
			vals [40]core.Value
			oks  [40]bool
		)
		tr.Flush()
		tr.Pool().Device().ResetStats() // from here on a batch is a read wave
		keys[39] = 1 << 40              // past the end
		run := 0
		allocs := testing.AllocsPerRun(1000, func() {
			for i := range keys[:39] { // scattered over more leaves than the pool holds
				keys[i] = uint64(i*131+run*977) % 5000
			}
			run++
			tr.GetBatch(keys[:], vals[:], oks[:])
			if !oks[0] || oks[39] {
				t.Fatal("wrong outcome")
			}
		})
		if allocs != 0 {
			t.Fatalf("Tree.GetBatch on %s allocates %v per call, want 0", medium, allocs)
		}
		if medium == storage.MQSSD && tr.Pool().Device().Stats().Batches == 0 {
			t.Fatal("no read wave was submitted")
		}
		hits := tr.Pool().Stats().PrefetchHits
		allocs = testing.AllocsPerRun(1000, func() {
			for i := range keys[:39] {
				keys[i] = uint64(i*131+run*977) % 5000
			}
			run++
			tr.Prefetch(keys[:])
			if _, ok := tr.Get(keys[0]); !ok {
				t.Fatal("wrong outcome")
			}
		})
		if allocs != 0 {
			t.Fatalf("Tree.Prefetch on %s allocates %v per call, want 0", medium, allocs)
		}
		if medium == storage.MQSSD && tr.Pool().Stats().PrefetchHits == hits {
			t.Fatal("no prefetched page was fetched")
		}
	}
}
