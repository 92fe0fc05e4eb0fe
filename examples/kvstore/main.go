// KV-store scenario: a write-heavy key-value service (session store,
// metrics ingest) compared across a B+-tree, a hash index, and LSM-trees in
// both compaction modes — the workload that motivates write-optimized
// differential structures, measured in RUM terms on flash-like storage
// where write amplification costs endurance.
package main

import (
	"fmt"
	"log"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/storage"
	"repro/internal/workload"
)

const (
	preload = 1 << 15
	churn   = 40000
)

func main() {
	opt := methods.Options{PageSize: 4096, PoolPages: 16, Medium: storage.SSD}
	hash, err := methods.Lookup(opt, "hash")
	if err != nil {
		log.Fatal(err)
	}

	candidates := []struct {
		name string
		am   *core.Instrumented
	}{
		{"btree", methods.NewBTree(opt, btree.Config{})},
		{"hash", hash.New()},
		{"lsm leveling", methods.NewLSM(opt, lsm.Config{MemtableRecords: 2048, SizeRatio: 10, BloomBitsPerKey: 10})},
		{"lsm tiering", methods.NewLSM(opt, lsm.Config{MemtableRecords: 2048, SizeRatio: 10, Tiering: true, BloomBitsPerKey: 10})},
	}

	fmt.Printf("Write-heavy KV service: %d records preloaded, %d ops (60%% insert, 30%% update, 10%% read), SSD costs\n\n",
		preload, churn)
	fmt.Printf("%-14s %10s %10s %10s %14s %12s\n", "engine", "RO", "UO", "MO", "device writes", "cost units")

	for _, c := range candidates {
		gen := workload.New(workload.Config{
			Seed:       7,
			Mix:        workload.WriteHeavy,
			InitialLen: preload,
			RangeLen:   1 << 28,
		})
		prof, err := core.RunProfile(c.am, gen, churn)
		if err != nil {
			log.Fatal(err)
		}
		// Device-level cost: SSD writes are 5x reads in the simulator, the
		// flash asymmetry of Section 2.
		var devWrites, costUnits uint64
		if d := deviceOf(c.am); d != nil {
			st := d.Stats()
			devWrites = st.PageWrites
			costUnits = st.CostUnits
		}
		fmt.Printf("%-14s %10.2f %10.2f %10.3f %14d %12d\n",
			c.name, prof.Point.R, prof.Point.U, prof.Point.M, devWrites, costUnits)
	}

	fmt.Println(`
Reading the result:
  - Both LSMs show far lower write amplification (UO) than the in-place
    B+-tree and hash index: updates are absorbed in the memtable and merged
    sequentially instead of rewriting a 4 KiB page per 16-byte record.
  - Tiering writes even less than leveling (lazier merging) but holds more
    duplicate, not-yet-merged data (higher MO): one knob, three overheads —
    the RUM tradeoff.
  - On endurance-limited flash, device writes and cost units are the numbers
    that decide: the paper's point that hardware shifts RUM priorities.`)
}

// deviceOf digs the simulated device out of an instrumented structure.
func deviceOf(am *core.Instrumented) *storage.Device {
	type pooled interface{ Pool() *storage.BufferPool }
	switch s := am.Unwrap().(type) {
	case pooled:
		return s.Pool().Device()
	default:
		return nil
	}
}
