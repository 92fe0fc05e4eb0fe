package btree

import (
	"encoding/binary"

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

// intSearch returns the position of the first entry with key > k, i.e. the
// insertion position for a new separator k. It is also the child slot that
// covers k: n.child(n.intSearch(k)) is the entry with the largest separator
// <= k, or the leftmost child when k precedes every separator.
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

// group is the lock-step descent kernel of Snapshot.GetBatch and
// Tree.GetBatch: the caller loads one level's node images into pages.
type group struct {
	pages [core.GroupWidth][]byte
	pos   [core.GroupWidth]int
}

// emptyNode has no entries: a key given it sits the level out and misses.
var emptyNode = make([]byte, headerSize)

func (g *group) node(i int) node { return node{g.pages[i]} }

// step searches the loaded level with core.SearchGroup — leafSearch's rule
// on leaves, intSearch's on internal nodes — and, on an internal level,
// writes to next[i] the child keys[i] routes to. The nodes' counts are read
// in a pass of their own, so that their cache misses overlap one another;
// read in the loop that loads the pages, each one stalls that loop.
func (g *group) step(keys []core.Key, leaf bool, next *[core.GroupWidth]storage.PageID) {
	for i := range keys {
		g.pos[i] = g.node(i).count()
	}
	if leaf {
		core.SearchGroup(&g.pages, keys, &g.pos, headerSize, leafEntrySize, false)
		return
	}
	core.SearchGroup(&g.pages, keys, &g.pos, headerSize, intEntrySize, true)
	for i := range keys {
		next[i] = g.node(i).child(g.pos[i])
	}
}

// found is key k's outcome after a leaf step, where k is the i-th key.
func (g *group) found(i int, k core.Key) (core.Value, bool) {
	n, p := node{g.pages[i]}, g.pos[i] // not g.node(i): that puts found past the inlining budget
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
