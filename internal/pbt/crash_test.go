package pbt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
)

// TestCrashContractDeclaredLossy: the partitioned B-tree keeps its partition
// directory (active, sealed, main) in memory only, so it has no recovery
// path — the crash checker must report that as the declared no-recovery
// contract, never a violation. The per-partition page images on the device
// are individually recoverable B-trees, but without a persisted directory
// there is no sound way to tell active from sealed from main; recovering
// them is future work (see ROADMAP.md).
func TestCrashContractDeclaredLossy(t *testing.T) {
	sub := faults.Subject{
		Name: "pbt",
		Open: func(pool *storage.BufferPool) (core.AccessMethod, error) {
			return New(pool, Config{PartitionRecords: 64})
		},
		Reopen:     nil, // no persisted partition directory: fully lossy
		Durability: faults.Lossy,
	}
	for seed := uint64(1); seed <= 10; seed++ {
		res := faults.CheckCrash(faults.CheckConfig{Seed: seed}, sub)
		if res.Verdict != faults.NoRecovery && res.Verdict != faults.NoCrash {
			t.Fatalf("seed %d: %s", seed, res)
		}
		if res.Verdict == faults.Violated {
			t.Fatalf("seed %d: unacceptable verdict %s", seed, res)
		}
	}
}
