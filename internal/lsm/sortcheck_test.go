//go:build racecheck

package lsm

import (
	"testing"

	"repro/internal/core"
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
			mergeSorted([][]core.Record{sorted, bad}, false)
		}()
	}
	mergeSorted([][]core.Record{sorted, nil, sorted}, true) // valid input stays silent
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
