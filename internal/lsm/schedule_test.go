package lsm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lsm/plan"
)

// TestTieredMergeKeepsTombstoneOverResidentRun is the eight-op reproduction
// of the delete-resurrection defect: the second L0 merge lands beside the run
// that still holds key 1, so it must carry the tombstone along.
func TestTieredMergeKeepsTombstoneOverResidentRun(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 2, SizeRatio: 2, Tiering: true})
	insert := func(keys ...core.Key) {
		for _, k := range keys {
			if err := tr.Insert(k, 10*k); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(1, 2, 3, 4)
	tr.Delete(1)
	insert(5, 6, 7)
	if v, ok := tr.Get(1); ok {
		t.Fatalf("deleted key 1 served %d after a tiered merge (runs per level %v)", v, shapeOf(tr))
	}
}

// shapeOf reads the run directory as record counts.
func shapeOf(tr *Tree) plan.Counts {
	shape := make(plan.Counts, len(tr.levels))
	for i, lv := range tr.levels {
		for _, r := range lv {
			shape[i] = append(shape[i], float64(r.count))
		}
	}
	return shape
}

// TestScheduleMatchesPlannerFold drives real trees with fresh keys — so a
// merge sheds nothing and counts are exact — and after every flush compares
// the run directory with plan.Policy.Flush folded over counts alone, the fold
// model.Config.lsm prices. One planner, two interpreters, one schedule.
func TestScheduleMatchesPlannerFold(t *testing.T) {
	const memtable = 32
	type scheduleCase struct {
		cfg  Config
		load int // records bulk-loaded first
	}
	cases := []scheduleCase{{Config{MemtableRecords: memtable, SizeRatio: 4}, 5000}}
	for _, ratio := range []int{2, 3, 4, 10} {
		for _, tiering := range []bool{false, true} {
			cases = append(cases, scheduleCase{cfg: Config{MemtableRecords: memtable, SizeRatio: ratio, Tiering: tiering}})
		}
	}
	for _, c := range cases {
		tr := newTestTree(t, c.cfg)
		t.Run(fmt.Sprintf("%s,load=%d", tr.Name(), c.load), func(t *testing.T) {
			p := tr.policy()
			var want plan.Counts
			if c.load > 0 {
				recs := make([]core.Record, c.load)
				for i := range recs {
					recs[i] = core.Record{Key: core.Key(i), Value: 1}
				}
				if err := tr.BulkLoad(recs); err != nil {
					t.Fatal(err)
				}
				want = make(plan.Counts, p.LoadLevel(float64(c.load))+1)
				want[len(want)-1] = []float64{float64(c.load)}
			}
			next := core.Key(c.load)
			for flush := 1; flush <= 64*c.cfg.SizeRatio; flush++ {
				for i := 0; i < memtable; i++ {
					if err := tr.Insert(next, 1); err != nil {
						t.Fatal(err)
					}
					next++
				}
				want = p.Flush(want, memtable, func(in float64) float64 { return in })
				if got := shapeOf(tr); !slices.EqualFunc(got, want, slices.Equal[[]float64]) {
					t.Fatalf("after flush %d the tree holds %v, the fold %v", flush, got, want)
				}
			}
			if tr.Depth() < 3 || tr.Stats().Compactions == 0 {
				t.Fatalf("schedule too shallow to compare: depth %d after %d compactions", tr.Depth(), tr.Stats().Compactions)
			}
		})
	}
}
