//go:build !racecheck

package btree

import (
	"repro/internal/core"
	"repro/internal/storage"
)

// checkRoute is the no-op release build of the memoized-route oracle. See
// routecheck_on.go (built with -tags racecheck).
func checkRoute(node, core.Key, storage.PageID) {}

// checkGroupRoutes is the no-op release build of the plan's route oracle.
func checkGroupRoutes(*batchScratch, []core.Key, int) {}
