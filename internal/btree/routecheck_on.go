//go:build racecheck

package btree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// checkRoute panics unless child, the memoized route's next page for k, is
// the one n routes k to: a route memo the stamp failed to invalidate.
func checkRoute(n node, k core.Key, child storage.PageID) {
	if got := n.route(k); got != child {
		panic(fmt.Sprintf("btree: memoized route sends key %d to page %d, the node to page %d", k, child, got))
	}
}

// checkGroupRoutes is checkRoute for every key of a planned group that
// peeked its level-l page: the memoized child must be the one the peeked
// image routes the key to.
func checkGroupRoutes(b *batchScratch, keys []core.Key, l int) {
	for i, k := range keys {
		if b.planned[i] > l {
			checkRoute(b.node(i), k, b.path[l+1][i])
		}
	}
}
