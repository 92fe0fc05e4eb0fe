// Package skiplist implements Pugh's skip list, one of the read-optimized
// logarithmic structures at the top corner of Figure 1. It is an in-memory
// structure: physical accounting meters the node bytes each operation
// touches, and the tower pointers are the space overhead that buys
// logarithmic search.
//
// The skip list doubles as the LSM-tree's memtable (internal/lsm), so it
// exposes ordered ascent in addition to the core.AccessMethod operations.
package skiplist

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rum"
)

// MaxLevel bounds tower height; 2^24 expected elements at p=0.5 is far above
// anything the experiments use.
const MaxLevel = 24

const pointerSize = 8

type node struct {
	key  core.Key
	val  core.Value
	next []*node
}

// size is the accounted footprint of the node: record plus tower pointers.
func (n *node) size() int { return core.RecordSize + len(n.next)*pointerSize }

// List is a skip list. Not safe for concurrent use.
type List struct {
	head     *node
	level    int
	count    int
	ptrBytes uint64 // total tower-pointer bytes, for Size()
	rng      *rand.Rand
	p        float64
	meter    *rum.Meter
}

// New creates an empty list with promotion probability p (0 means 0.5),
// deterministic under seed. A nil meter gets a private one.
func New(seed int64, p float64, meter *rum.Meter) *List {
	if meter == nil {
		meter = &rum.Meter{}
	}
	if p <= 0 || p >= 1 {
		p = 0.5
	}
	head := &node{next: make([]*node, MaxLevel)}
	return &List{
		head:     head,
		level:    1,
		rng:      rand.New(rand.NewSource(seed)),
		p:        p,
		meter:    meter,
		ptrBytes: MaxLevel * pointerSize,
	}
}

// Name returns "skiplist".
func (l *List) Name() string { return "skiplist" }

// Len returns the number of records.
func (l *List) Len() int { return l.count }

// Meter returns the RUM accounting.
func (l *List) Meter() *rum.Meter { return l.meter }

// Size reports records as base bytes and tower pointers as auxiliary bytes.
func (l *List) Size() rum.SizeInfo {
	return rum.SizeInfo{
		BaseBytes: uint64(l.count) * core.RecordSize,
		AuxBytes:  l.ptrBytes,
	}
}

// randomLevel draws a tower height with geometric distribution.
func (l *List) randomLevel() int {
	lvl := 1
	for lvl < MaxLevel && l.rng.Float64() < l.p {
		lvl++
	}
	return lvl
}

// findPredecessors walks the list charging one node read per visited node
// and fills pred[i] with the rightmost node at level i whose key < k.
func (l *List) findPredecessors(k core.Key, pred *[MaxLevel]*node) *node {
	x := l.head
	l.meter.CountRead(rum.Base, rum.LineCost(x.size()))
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < k {
			x = x.next[i]
			l.meter.CountRead(rum.Base, rum.LineCost(x.size()))
		}
		pred[i] = x
	}
	return x.next[0]
}

// Get searches for k in expected logarithmic node visits.
func (l *List) Get(k core.Key) (core.Value, bool) {
	var pred [MaxLevel]*node
	n := l.findPredecessors(k, &pred)
	if n != nil && n.key == k {
		l.meter.CountRead(rum.Base, rum.LineCost(n.size()))
		return n.val, true
	}
	return 0, false
}

// Insert adds a record.
func (l *List) Insert(k core.Key, v core.Value) error {
	var pred [MaxLevel]*node
	n := l.findPredecessors(k, &pred)
	if n != nil && n.key == k {
		return core.ErrKeyExists
	}
	lvl := l.randomLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			pred[i] = l.head
		}
		l.level = lvl
	}
	nn := &node{key: k, val: v, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = pred[i].next[i]
		pred[i].next[i] = nn
	}
	l.count++
	l.ptrBytes += uint64(lvl) * pointerSize
	// One node write plus a pointer write in each predecessor.
	l.meter.CountWrite(rum.Base, rum.LineCost(nn.size()))
	l.meter.CountWrite(rum.Aux, lvl*rum.LineSize)
	return nil
}

// Put inserts or overwrites (used by the LSM memtable, where the newest
// version shadows). It reports whether the key already existed.
func (l *List) Put(k core.Key, v core.Value) bool {
	var pred [MaxLevel]*node
	n := l.findPredecessors(k, &pred)
	if n != nil && n.key == k {
		n.val = v
		l.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
		return true
	}
	// Reuse Insert's path; the predecessor walk is already charged, so do
	// the link-in directly.
	lvl := l.randomLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			pred[i] = l.head
		}
		l.level = lvl
	}
	nn := &node{key: k, val: v, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = pred[i].next[i]
		pred[i].next[i] = nn
	}
	l.count++
	l.ptrBytes += uint64(lvl) * pointerSize
	l.meter.CountWrite(rum.Base, rum.LineCost(nn.size()))
	l.meter.CountWrite(rum.Aux, lvl*rum.LineSize)
	return false
}

// Update overwrites the record for k in place.
func (l *List) Update(k core.Key, v core.Value) bool {
	var pred [MaxLevel]*node
	n := l.findPredecessors(k, &pred)
	if n == nil || n.key != k {
		return false
	}
	n.val = v
	l.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete unlinks the record for k.
func (l *List) Delete(k core.Key) bool {
	var pred [MaxLevel]*node
	n := l.findPredecessors(k, &pred)
	if n == nil || n.key != k {
		return false
	}
	for i := 0; i < len(n.next); i++ {
		if pred[i].next[i] == n {
			pred[i].next[i] = n.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.count--
	l.ptrBytes -= uint64(len(n.next)) * pointerSize
	l.meter.CountWrite(rum.Aux, len(n.next)*rum.LineSize)
	return true
}

// RangeScan emits records with lo <= key <= hi in ascending order.
func (l *List) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	var pred [MaxLevel]*node
	n := l.findPredecessors(lo, &pred)
	emitted := 0
	for ; n != nil && n.key <= hi; n = n.next[0] {
		l.meter.CountRead(rum.Base, rum.LineCost(n.size()))
		emitted++
		if !emit(n.key, n.val) {
			break
		}
	}
	return emitted
}

// Ascend emits every record with key >= from in ascending order without
// charging the meter; it is the internal bulk-drain path used when the list
// serves as an LSM memtable (the flush itself is charged as page writes by
// the LSM).
func (l *List) Ascend(from core.Key, emit func(core.Key, core.Value) bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < from {
			x = x.next[i]
		}
	}
	for n := x.next[0]; n != nil; n = n.next[0] {
		if !emit(n.key, n.val) {
			return
		}
	}
}

// Reset empties the list, keeping the meter.
func (l *List) Reset() {
	l.head = &node{next: make([]*node, MaxLevel)}
	l.level = 1
	l.count = 0
	l.ptrBytes = MaxLevel * pointerSize
}

// BulkLoad replaces the contents with the key-sorted recs.
func (l *List) BulkLoad(recs []core.Record) error {
	l.Reset()
	for _, r := range recs {
		if err := l.Insert(r.Key, r.Value); err != nil {
			return fmt.Errorf("skiplist: bulk load: %w", err)
		}
	}
	return nil
}
