// Package trie implements a fixed-stride radix trie over uint64 keys
// (Fredkin, CACM 1960), a read-optimized structure of Figure 1 with
// *fixed* (not logarithmic) access cost: every lookup walks exactly
// 64/stride levels regardless of N. The price is space — every allocated
// node is a full 2^stride pointer array — making the trie a sharp example of
// buying read performance with memory.
//
// The stride is chosen at construction: wider strides shorten the path
// (lower RO) and inflate node fan-out arrays (higher MO).
package trie

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rum"
)

const pointerSize = 8

type node struct {
	children []*node      // interior level
	leaves   []core.Value // last level
	present  []bool       // value occupancy at the last level
	n        int          // live entries in this node
}

// Trie is a radix trie. Not safe for concurrent use.
type Trie struct {
	root   *node
	stride uint // bits per level
	levels uint
	count  int
	nodes  int
	meter  *rum.Meter
}

// New creates a trie with the given stride in bits (must divide 64;
// 0 defaults to 8). A nil meter gets a private one.
func New(stride uint, meter *rum.Meter) (*Trie, error) {
	if stride == 0 {
		stride = 8
	}
	if 64%stride != 0 {
		return nil, fmt.Errorf("trie: stride %d must divide 64", stride)
	}
	if stride > 16 {
		return nil, fmt.Errorf("trie: stride %d too wide (max 16)", stride)
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	t := &Trie{stride: stride, levels: 64 / stride, meter: meter}
	t.root = t.newNode(0)
	return t, nil
}

func (t *Trie) fanout() int { return 1 << t.stride }

func (t *Trie) newNode(level uint) *node {
	t.nodes++
	if level == t.levels-1 {
		return &node{leaves: make([]core.Value, t.fanout()), present: make([]bool, t.fanout())}
	}
	return &node{children: make([]*node, t.fanout())}
}

// nodeBytes is the accounted footprint of one node.
func (t *Trie) nodeBytes() uint64 { return uint64(t.fanout()) * pointerSize }

// slot extracts the child index for key at the given level (level 0 uses the
// most significant bits, so in-order traversal yields ascending keys).
func (t *Trie) slot(k core.Key, level uint) int {
	shift := 64 - t.stride*(level+1)
	return int((k >> shift) & (uint64(t.fanout()) - 1))
}

// Name identifies the trie and its stride.
func (t *Trie) Name() string { return fmt.Sprintf("trie(stride=%d)", t.stride) }

// Len returns the number of records.
func (t *Trie) Len() int { return t.count }

// Meter returns the RUM accounting.
func (t *Trie) Meter() *rum.Meter { return t.meter }

// Size reports records as base bytes and all node arrays beyond them as
// auxiliary bytes.
func (t *Trie) Size() rum.SizeInfo {
	total := uint64(t.nodes) * t.nodeBytes()
	base := uint64(t.count) * core.RecordSize
	aux := uint64(0)
	if total > base {
		aux = total - base
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: aux}
}

// walk descends to the leaf node for k, charging one pointer read per level,
// and returns the leaf node and slot, or nil when the path is missing.
func (t *Trie) walk(k core.Key) (*node, int) {
	n := t.root
	for level := uint(0); level < t.levels-1; level++ {
		t.meter.CountRead(rum.Aux, rum.LineSize)
		n = n.children[t.slot(k, level)]
		if n == nil {
			return nil, 0
		}
	}
	t.meter.CountRead(rum.Aux, rum.LineSize)
	return n, t.slot(k, t.levels-1)
}

// Get walks exactly 64/stride levels.
func (t *Trie) Get(k core.Key) (core.Value, bool) {
	n, i := t.walk(k)
	if n == nil || !n.present[i] {
		return 0, false
	}
	t.meter.CountRead(rum.Base, rum.LineCost(core.RecordSize))
	return n.leaves[i], true
}

// Insert adds a record, materializing path nodes as needed.
func (t *Trie) Insert(k core.Key, v core.Value) error {
	n := t.root
	for level := uint(0); level < t.levels-1; level++ {
		t.meter.CountRead(rum.Aux, rum.LineSize)
		s := t.slot(k, level)
		if n.children[s] == nil {
			n.children[s] = t.newNode(level + 1)
			n.n++
			t.meter.CountWrite(rum.Aux, rum.LineSize)
		}
		n = n.children[s]
	}
	i := t.slot(k, t.levels-1)
	if n.present[i] {
		return core.ErrKeyExists
	}
	n.present[i] = true
	n.leaves[i] = v
	n.n++
	t.count++
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return nil
}

// Update overwrites the record for k in place.
func (t *Trie) Update(k core.Key, v core.Value) bool {
	n, i := t.walk(k)
	if n == nil || !n.present[i] {
		return false
	}
	n.leaves[i] = v
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete removes the record for k and prunes emptied path nodes.
func (t *Trie) Delete(k core.Key) bool {
	if !t.deleteRec(t.root, k, 0) {
		return false
	}
	t.count--
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

func (t *Trie) deleteRec(n *node, k core.Key, level uint) bool {
	s := t.slot(k, level)
	t.meter.CountRead(rum.Aux, rum.LineSize)
	if level == t.levels-1 {
		if !n.present[s] {
			return false
		}
		n.present[s] = false
		n.leaves[s] = 0
		n.n--
		return true
	}
	child := n.children[s]
	if child == nil {
		return false
	}
	if !t.deleteRec(child, k, level+1) {
		return false
	}
	if child.n == 0 {
		n.children[s] = nil
		n.n--
		t.nodes--
		t.meter.CountWrite(rum.Aux, rum.LineSize)
	}
	return true
}

// RangeScan emits records with lo <= key <= hi in ascending key order by
// in-order traversal.
func (t *Trie) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	emitted := 0
	t.scanRec(t.root, 0, 0, lo, hi, &emitted, emit)
	return emitted
}

// scanRec walks the subtree under n whose key prefix is prefix at the given
// level, pruned to [lo, hi]. It returns false to stop the traversal.
func (t *Trie) scanRec(n *node, prefix uint64, level uint, lo, hi core.Key, emitted *int, emit func(core.Key, core.Value) bool) bool {
	shift := 64 - t.stride*(level+1)
	span := uint64(1)<<shift - 1 // key span below one slot at this level
	for s := 0; s < t.fanout(); s++ {
		first := prefix | uint64(s)<<shift
		last := first | span
		if last < lo {
			continue
		}
		if first > hi {
			return true
		}
		t.meter.CountRead(rum.Aux, pointerSize)
		if level == t.levels-1 {
			if !n.present[s] {
				continue
			}
			t.meter.CountRead(rum.Base, core.RecordSize)
			*emitted++
			if !emit(first, n.leaves[s]) {
				return false
			}
			continue
		}
		child := n.children[s]
		if child == nil {
			continue
		}
		if !t.scanRec(child, first, level+1, lo, hi, emitted, emit) {
			return false
		}
	}
	return true
}

// BulkLoad replaces the contents with the key-sorted recs.
func (t *Trie) BulkLoad(recs []core.Record) error {
	t.root = t.newNode(0)
	t.nodes = 1
	t.count = 0
	for _, r := range recs {
		if err := t.Insert(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}
