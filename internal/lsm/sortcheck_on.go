//go:build racecheck

package lsm

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// assertAscending panics unless every source is strictly ascending by key —
// the precondition mergeSorted's head scan relies on. A run, a memtable
// drain, and a frozen memtable slice all satisfy it by construction, so a
// violation is a bug in whatever materialized the source.
func assertAscending(sources [][]core.Record) {
	for i, src := range sources {
		for j := 1; j < len(src); j++ {
			if src[j-1].Key >= src[j].Key {
				panic(fmt.Sprintf("lsm: merge source %d not strictly ascending at %d: key %d then %d",
					i, j, src[j-1].Key, src[j].Key))
			}
		}
	}
}

// assertNoBystander panics if a run outside victims sits in levels — the
// target level of a merge and everything below it. Only such a merge may
// drop tombstones: a bystander could still hold a version one of them
// shadows. The planner computes this from counts; the executor checks it
// against the run directory itself.
func assertNoBystander(levels [][]*run, victims []*run) {
	for i, lv := range levels {
		for _, r := range lv {
			if !slices.Contains(victims, r) {
				panic(fmt.Sprintf("lsm: merge drops tombstones past a %d-record run %d levels below its target", r.count, i))
			}
		}
	}
}
