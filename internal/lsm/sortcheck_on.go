//go:build racecheck

package lsm

import (
	"fmt"

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
