package btree

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/core"
	"repro/internal/storage"
)

// On-page node layout. Every node occupies exactly one device page:
//
//	byte 0      kind: 1 = leaf, 2 = internal
//	byte 1      unused
//	bytes 2:4   entry count (uint16)
//	bytes 4:8   leaf: next-leaf PageID; internal: leftmost child PageID
//	bytes 8:12  reserved
//	bytes 12:   entries
//
// Leaf entries are 16 bytes: key (8) + value (8), sorted by key.
// Internal entries are 12 bytes: separator key (8) + child PageID (4),
// sorted by key; the subtree at entry i holds keys in [key_i, key_{i+1}).
// Keys below key_0 route to the leftmost child.
const (
	headerSize    = 12
	leafEntrySize = core.RecordSize
	intEntrySize  = 12

	kindLeaf     = 1
	kindInternal = 2
)

type node struct{ data []byte }

func (n node) kind() byte     { return n.data[0] }
func (n node) setKind(k byte) { n.data[0] = k }
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n.data[2:4])) }
func (n node) setCount(c int) { binary.LittleEndian.PutUint16(n.data[2:4], uint16(c)) }
func (n node) isLeaf() bool   { return n.kind() == kindLeaf }
func (n node) link() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.data[4:8]))
}
func (n node) setLink(id storage.PageID) {
	binary.LittleEndian.PutUint32(n.data[4:8], uint32(id))
}

// --- leaf accessors ---

func leafOff(i int) int { return headerSize + i*leafEntrySize }

func (n node) leafKey(i int) core.Key {
	return binary.LittleEndian.Uint64(n.data[leafOff(i):])
}

func (n node) leafValue(i int) core.Value {
	return binary.LittleEndian.Uint64(n.data[leafOff(i)+8:])
}

func (n node) setLeafEntry(i int, k core.Key, v core.Value) {
	off := leafOff(i)
	binary.LittleEndian.PutUint64(n.data[off:], k)
	binary.LittleEndian.PutUint64(n.data[off+8:], v)
}

// leafSearch returns the position of the first entry with key >= k.
func (n node) leafSearch(k core.Key) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.leafKey(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafInsertAt shifts entries right and writes (k, v) at position i.
func (n node) leafInsertAt(i int, k core.Key, v core.Value) {
	c := n.count()
	copy(n.data[leafOff(i+1):leafOff(c+1)], n.data[leafOff(i):leafOff(c)])
	n.setLeafEntry(i, k, v)
	n.setCount(c + 1)
}

// leafRemoveAt shifts entries left over position i.
func (n node) leafRemoveAt(i int) {
	c := n.count()
	copy(n.data[leafOff(i):leafOff(c-1)], n.data[leafOff(i+1):leafOff(c)])
	n.setCount(c - 1)
}

// --- internal accessors ---

func intOff(i int) int { return headerSize + i*intEntrySize }

func (n node) intKey(i int) core.Key {
	return binary.LittleEndian.Uint64(n.data[intOff(i):])
}

func (n node) intChild(i int) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.data[intOff(i)+8:]))
}

func (n node) setIntEntry(i int, k core.Key, child storage.PageID) {
	off := intOff(i)
	binary.LittleEndian.PutUint64(n.data[off:], k)
	binary.LittleEndian.PutUint32(n.data[off+8:], uint32(child))
}

// route returns the child that covers k: the entry with the largest separator
// <= k, or the leftmost child when k precedes every separator.
func (n node) route(k core.Key) storage.PageID {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.intKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return n.link() // leftmost child
	}
	return n.intChild(lo - 1)
}

// intSearch returns the position of the first entry with key > k, i.e. the
// insertion position for a new separator k.
func (n node) intSearch(k core.Key) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.intKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// groupWidth is how many independent searches searchGroup advances in
// lock-step. Widths 8, 16 and 32 read the same within noise (100–109, 102–114
// and 104–109 ns per key through Snapshot.GetBatch on a 131 072-key tree;
// width 4: 111–126, width 1: 215–238, the per-key loop 208–215) — sixteen
// outstanding loads already cover what a core keeps in flight — so it is a
// constant, not an option.
const groupWidth = 16

// searchGroup is leafSearch (nodes are leaves) or intSearch (internal nodes)
// for up to groupWidth independent (node, key) pairs at once: pos[i] is the
// position nodes[i].leafSearch(keys[i]) / nodes[i].intSearch(keys[i]) would
// return. Each halving step of a base/length binary search is taken for every
// pair before the next step, so the pairs' key loads — one dependent cache
// miss per step in the single-key kernels — are outstanding together.
func searchGroup(nodes *[groupWidth]node, keys []core.Key, pos *[groupWidth]int, leaf bool) {
	// Entry i advances past the probe when probe < k + incl: probe < k is
	// leafSearch's rule, probe <= k intSearch's. Taken as the borrow of a
	// subtraction so that the step is arithmetic, not a branch that is wrong
	// half the time and drains the other pairs' loads with it.
	stride, incl := uint(intEntrySize), uint64(1)
	if leaf {
		stride, incl = leafEntrySize, 0
	}
	// The answer of pair i lies in [lo[i], lo[i]+length[i]]. Local copies
	// bounded by w keep the step loop free of spills and lane-index checks.
	w := min(len(keys), groupWidth)
	var (
		ks         [groupWidth]core.Key
		lo, length [groupWidth]uint
	)
	steps := 0
	for i := 0; i < w; i++ {
		ks[i], length[i] = keys[i], uint(nodes[i].count())
		steps = max(steps, bits.Len(length[i]))
	}
	for ; steps > 0; steps-- {
		for i := 0; i < w; i++ {
			n := length[i]
			if n == 0 {
				continue // a node with fewer entries than the widest finishes early
			}
			// Probe the last entry of the lower half (the only entry when
			// n == 1): past it, the answer is in the upper half.
			half := (n + 1) / 2
			// The full slice expression spares the load any capacity arithmetic.
			off := headerSize + (lo[i]+half-1)*stride
			probe := binary.LittleEndian.Uint64(nodes[i].data[off : off+8 : off+8])
			_, past := bits.Sub64(probe, ks[i], incl)
			lo[i] += half & -uint(past)
			length[i] = n - half
		}
	}
	for i := 0; i < w; i++ {
		pos[i] = int(lo[i])
	}
}

// group is the lock-step descent kernel of Snapshot.GetBatch and
// Tree.GetBatch: the caller loads one level's pages into nodes.
type group struct {
	nodes [groupWidth]node
	pos   [groupWidth]int
}

// emptyNode has no entries: a key given it sits the level out and misses.
var emptyNode = node{make([]byte, headerSize)}

// step searches the loaded level and, on an internal one, writes to next[i]
// the child keys[i] routes to.
func (g *group) step(keys []core.Key, leaf bool, next *[groupWidth]storage.PageID) {
	searchGroup(&g.nodes, keys, &g.pos, leaf)
	if !leaf {
		for i := range keys {
			next[i] = g.nodes[i].child(g.pos[i])
		}
	}
}

// found is key k's outcome after a leaf step, where k is the i-th key.
func (g *group) found(i int, k core.Key) (core.Value, bool) {
	n, p := g.nodes[i], g.pos[i]
	if p < n.count() && n.leafKey(p) == k {
		return n.leafValue(p), true
	}
	return 0, false
}

// intInsertAt shifts entries right and writes (k, child) at position i.
func (n node) intInsertAt(i int, k core.Key, child storage.PageID) {
	c := n.count()
	copy(n.data[intOff(i+1):intOff(c+1)], n.data[intOff(i):intOff(c)])
	n.setIntEntry(i, k, child)
	n.setCount(c + 1)
}
