//go:build racecheck

package lsm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lsm/plan"
	"repro/internal/storage"
)

// TestMergeSortedRejectsUnsortedSource verifies the racecheck build turns a
// source that is out of order, or repeats a key, into a panic instead of a
// silently wrong merge.
func TestMergeSortedRejectsUnsortedSource(t *testing.T) {
	sorted := []core.Record{{Key: 1}, {Key: 4}, {Key: 9}}
	for name, bad := range map[string][]core.Record{
		"descending": {{Key: 2}, {Key: 1}},
		"duplicate":  {{Key: 3}, {Key: 3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s source did not panic under -tags racecheck", name)
				}
			}()
			mergeSorted(nil, [][]core.Record{sorted, bad}, false)
		}()
	}
	mergeSorted(nil, [][]core.Record{sorted, nil, sorted}, true) // valid input stays silent
}

// TestIngestSortedRejectsUnsortedBatch: the sorted entry point holds its
// caller to the same precondition — an unsorted batch would become a run
// whose fences lie.
func TestIngestSortedRejectsUnsortedBatch(t *testing.T) {
	for name, bad := range map[string][]core.Record{
		"descending": {{Key: 2, Value: 1}, {Key: 1, Value: 1}},
		"duplicate":  {{Key: 3, Value: 1}, {Key: 3, Value: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s batch did not panic under -tags racecheck", name)
				}
			}()
			tr := New(storage.NewBufferPool(storage.NewDevice(512, storage.SSD, nil), 8), Config{})
			_ = tr.IngestSorted(bad, len(bad))
		}()
	}
}

// TestApplyRejectsTombstoneDropPastBystander: the executor holds a step to
// the tombstone rule on its own, against the run directory — a step that
// would shed tombstones beside a run it does not merge is a planner bug, and
// panics before any page moves.
func TestApplyRejectsTombstoneDropPastBystander(t *testing.T) {
	tr := New(storage.NewBufferPool(storage.NewDevice(512, storage.SSD, nil), 8), Config{MemtableRecords: 2, SizeRatio: 2, Tiering: true})
	for k := core.Key(1); k <= 6; k++ { // L1 holds {1..4}, L0 one run {5,6}
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.levels) != 2 || len(tr.levels[0]) != 1 || len(tr.levels[1]) != 1 {
		t.Fatalf("unexpected shape: %d levels", len(tr.levels))
	}
	for name, st := range map[string]plan.Step{
		"beside a resident run": {From: 0, Into: 1, DropTombstones: true},
		"above a deeper run":    {From: 0, Into: 0, DropTombstones: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a merge dropping tombstones %s did not panic under -tags racecheck", name)
				}
			}()
			tr.apply(st)
		}()
	}
	tr.apply(plan.Step{From: 0, Into: 1, Absorb: true, DropTombstones: true}) // every run an input: silent
	if tr.Runs() != 1 || tr.levels[1][0].count != 6 {
		t.Fatalf("absorbing merge left %d runs", tr.Runs())
	}
}
