//go:build !racecheck

package btree

import (
	"testing"

	"repro/internal/core"
)

// TestTreeGetBatchAllocs pins the live group path at zero allocations: its
// scratch is the tree's. (The racecheck build's pool asserts allocate by
// design, so this file is left out of it.)
func TestTreeGetBatchAllocs(t *testing.T) {
	tr := newTestTree(t, 512, 64, Config{})
	for k := uint64(0); k < 5000; k++ {
		tr.Insert(k, k)
	}
	var (
		keys [40]core.Key
		vals [40]core.Value
		oks  [40]bool
	)
	for i := range keys {
		keys[i] = uint64(i) * 131 // the last one is past the end
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.GetBatch(keys[:], vals[:], oks[:])
		if !oks[0] || oks[39] {
			t.Fatal("wrong outcome")
		}
	})
	if allocs != 0 {
		t.Fatalf("Tree.GetBatch allocates %v per call, want 0", allocs)
	}
}
