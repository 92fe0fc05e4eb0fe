package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// What walsweep and qdsweep share: both price a knob in device cost units,
// over the same write-heavy workload, sampled after every operation.

// CostProfile is a sweep cell's device bill over its measured phase.
type CostProfile struct {
	// OpsPerKCost is operations per 1000 medium-weighted device cost units —
	// the deterministic throughput stand-in (wall-clock is not).
	OpsPerKCost float64
	// CostP50/P99/Max is the per-op device cost distribution: where the knob
	// moves the bill between every op and rare spikes.
	CostP50, CostP99, CostMax uint64
}

// preload builds the paper-side generator for mix over cfg.N records, loads
// them into am and flushes, so the measured phase starts from a settled store.
func preload(cfg Config, am *core.Instrumented, mix workload.Mix, who string) *workload.Generator {
	gen := workload.New(workload.Config{Seed: cfg.Seed, Mix: mix, InitialLen: cfg.N})
	if err := core.Preload(am, gen); err != nil {
		panic(fmt.Sprintf("%s: preload: %v", who, err))
	}
	am.Flush()
	return gen
}

// profileCost applies ops operations of gen to am, flushing eight times along
// the way (a periodic checkpoint or write-back burst: it lands in the cost of
// the op it follows), and reads dev's cost units after every one.
func profileCost(am *core.Instrumented, dev *storage.Device, gen *workload.Generator, ops int) CostProfile {
	costs := make([]uint64, ops)
	flushEvery := ops / 8
	before := dev.Stats().CostUnits
	prev := before
	var st core.OpStats
	for i := range costs {
		core.Apply(am, gen.Next(), &st)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			am.Flush()
		}
		now := dev.Stats().CostUnits
		costs[i] = now - prev
		prev = now
	}
	var p CostProfile
	if total := prev - before; total > 0 {
		p.OpsPerKCost = float64(ops) * 1000 / float64(total)
	}
	slices.Sort(costs)
	quantile := func(q float64) uint64 { return costs[int(q*float64(len(costs)-1))] }
	p.CostP50, p.CostP99, p.CostMax = quantile(0.50), quantile(0.99), costs[len(costs)-1]
	return p
}
