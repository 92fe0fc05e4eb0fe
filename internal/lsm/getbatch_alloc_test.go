//go:build !racecheck

package lsm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestLSMGetBatchAllocs pins GetBatch at zero allocations once its scratch
// has grown: on the MQSSD, where each run's missing pages go to the pool as
// one wave and the rest are searched in lock-step, over batches of 1 to 64
// keys with repeats, and on the flat SSD, where it is the Get loop. (The
// racecheck build's pool asserts allocate by design, so this file is left
// out of it.)
func TestLSMGetBatchAllocs(t *testing.T) {
	const live = 20000
	for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
		tr := New(storage.NewBufferPool(storage.NewDevice(4096, medium, nil), 64), Config{MemtableRecords: 512, SizeRatio: 4})
		for _, k := range permKeys(live) {
			if err := tr.Insert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		tr.Flush()
		for k := core.Key(0); k < 300; k += 3 { // a few in the memtable, tombstones among them
			if k%2 == 0 {
				tr.Delete(k)
			} else {
				tr.Update(k, k+1)
			}
		}
		var (
			keys [64]core.Key
			vals [64]core.Value
			oks  [64]bool
		)
		run := 0
		batch := func() {
			size := 1 + run%64
			for i := range keys[:size] {
				keys[i] = core.Key((i*7919 + run*104729) % (live + 200)) // a few past the end
				if i%5 == 4 {
					keys[i] = keys[i/2] // a repeat inside the batch
				}
			}
			run++
			tr.GetBatch(keys[:size], vals[:size], oks[:size])
			for i, k := range keys[:size] {
				if want := k < live && (k >= 300 || k%3 != 0 || k%2 != 0); oks[i] != want || (want && vals[i] != k+1) {
					t.Fatalf("%s: key %d: GetBatch %d,%v", medium, k, vals[i], oks[i])
				}
			}
		}
		for range 64 { // every size once: the scratch grows to the largest batch
			batch()
		}
		waves := tr.Pool().Device().Stats().Batches
		if allocs := testing.AllocsPerRun(640, batch); allocs != 0 {
			t.Fatalf("Tree.GetBatch on %s allocates %v per call, want 0", medium, allocs)
		}
		if medium == storage.MQSSD && tr.Pool().Device().Stats().Batches == waves {
			t.Fatal("no read wave was submitted")
		}
	}
}

// permKeys returns the keys 0 … n-1 in a fixed scrambled order.
func permKeys(n int) []core.Key {
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = core.Key(i * 7 % n)
	}
	return keys
}
