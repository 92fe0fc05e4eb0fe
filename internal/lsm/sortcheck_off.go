//go:build !racecheck

package lsm

import "repro/internal/core"

// assertAscending is the no-op release build of mergeSorted's precondition
// check. See sortcheck_on.go (built with -tags racecheck).
func assertAscending([][]core.Record) {}

// assertNoBystander is the no-op release build of apply's check that a merge
// dropping tombstones leaves no run behind at or below its target level.
func assertNoBystander([][]*run, []*run) {}
