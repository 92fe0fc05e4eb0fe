// Package pbt implements the Partitioned B-tree (Graefe, CIDR 2003), one of
// Section 4's write-optimized differential structures: inserts go into a
// small active B-tree partition, so they touch shallow, hot pages instead of
// a cold leaf of one large tree; full partitions are sealed and periodically
// merged into the main partition in bulk, consolidating updates exactly as
// the paper describes ("consolidate updates and apply them in bulk to the
// base data").
//
// Compared with the LSM-tree, the PBT keeps every partition a real B-tree:
// deletes and updates are performed in place in whichever partition holds
// the key (no tombstones), and uniqueness can be enforced by probing — the
// read-price of which is charged honestly on the insert path.
package pbt

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// Config tunes the tree.
type Config struct {
	// PartitionRecords seals the active partition at this size (default 1024).
	PartitionRecords int
	// MergeFanIn merges once this many sealed partitions exist (default 4).
	MergeFanIn int
}

func (c *Config) defaults() {
	if c.PartitionRecords <= 0 {
		c.PartitionRecords = 1024
	}
	if c.MergeFanIn < 2 {
		c.MergeFanIn = 4
	}
}

// Tree is a partitioned B-tree. All partitions share one buffer pool.
// Not safe for concurrent use.
type Tree struct {
	pool   *storage.BufferPool
	cfg    Config
	main   *btree.Tree   // merged bulk, oldest data (may be nil)
	sealed []*btree.Tree // immutable-by-convention, oldest first
	active *btree.Tree
}

// New creates an empty partitioned B-tree on pool.
func New(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	cfg.defaults()
	active, err := btree.New(pool, btree.Config{})
	if err != nil {
		return nil, err
	}
	return &Tree{pool: pool, cfg: cfg, active: active}, nil
}

// Name identifies the tree and its shape.
func (t *Tree) Name() string {
	return fmt.Sprintf("pbt(part=%d,fan=%d)", t.cfg.PartitionRecords, t.cfg.MergeFanIn)
}

// Len returns the number of records.
func (t *Tree) Len() int {
	n := t.active.Len()
	for _, p := range t.sealed {
		n += p.Len()
	}
	if t.main != nil {
		n += t.main.Len()
	}
	return n
}

// Pool returns the shared buffer pool.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Meter returns the shared device meter.
func (t *Tree) Meter() *rum.Meter { return t.pool.Device().Meter() }

// Size aggregates all partitions: records as base bytes, page overhead as
// auxiliary bytes.
func (t *Tree) Size() rum.SizeInfo {
	var s rum.SizeInfo
	for _, p := range t.partitions() {
		s = s.Add(p.Size())
	}
	// Re-split: records are base, everything else aux.
	base := uint64(t.Len()) * core.RecordSize
	total := s.Total()
	if base > total {
		base = total
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: total - base}
}

// Flush writes all buffered dirty pages.
func (t *Tree) Flush() { t.pool.FlushAll() }

// partitions returns every partition, newest first.
func (t *Tree) partitions() []*btree.Tree {
	out := make([]*btree.Tree, 0, 2+len(t.sealed))
	out = append(out, t.active)
	for i := len(t.sealed) - 1; i >= 0; i-- {
		out = append(out, t.sealed[i])
	}
	if t.main != nil {
		out = append(out, t.main)
	}
	return out
}

// Get probes partitions newest to oldest.
func (t *Tree) Get(k core.Key) (core.Value, bool) {
	for _, p := range t.partitions() {
		if v, ok := p.Get(k); ok {
			return v, true
		}
	}
	return 0, false
}

// Insert adds a record to the active partition, enforcing uniqueness by
// probing every partition (the read-price of uniqueness in a differential
// structure, charged honestly).
func (t *Tree) Insert(k core.Key, v core.Value) error {
	for _, p := range t.partitions() {
		if p == t.active {
			continue // the active partition's own check happens on insert
		}
		if _, ok := p.Get(k); ok {
			return core.ErrKeyExists
		}
	}
	if err := t.active.Insert(k, v); err != nil {
		return err
	}
	if t.active.Len() >= t.cfg.PartitionRecords {
		t.seal()
	}
	return nil
}

// seal retires the active partition and starts a fresh one, merging when
// enough sealed partitions accumulated.
func (t *Tree) seal() {
	t.sealed = append(t.sealed, t.active)
	fresh, err := btree.New(t.pool, btree.Config{})
	if err != nil {
		return
	}
	t.active = fresh
	if len(t.sealed) >= t.cfg.MergeFanIn {
		t.merge()
	}
}

// merge consolidates every sealed partition (and the main partition) into a
// new main partition via a bulk build — the PBT's deferred, sequential
// write path.
func (t *Tree) merge() {
	victims := append([]*btree.Tree{}, t.sealed...)
	if t.main != nil {
		victims = append(victims, t.main)
	}
	var recs []core.Record
	for _, p := range victims {
		p.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
			recs = append(recs, core.Record{Key: k, Value: v})
			return true
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	merged, err := btree.New(t.pool, btree.Config{})
	if err != nil {
		return
	}
	if err := merged.BulkLoad(recs); err != nil {
		return
	}
	for _, p := range victims {
		_ = p.Drop()
	}
	t.sealed = nil
	t.main = merged
}

// Update modifies the record in place in whichever partition holds it.
func (t *Tree) Update(k core.Key, v core.Value) bool {
	for _, p := range t.partitions() {
		if p.Update(k, v) {
			return true
		}
	}
	return false
}

// Delete removes the record in place — no tombstones needed, every
// partition is a mutable B-tree.
func (t *Tree) Delete(k core.Key) bool {
	for _, p := range t.partitions() {
		if p.Delete(k) {
			return true
		}
	}
	return false
}

// RangeScan merges the partitions' sorted streams, emitting ascending keys.
func (t *Tree) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	// Collect per-partition results (each sorted, mutually disjoint by key
	// uniqueness) and merge.
	var recs []core.Record
	for _, p := range t.partitions() {
		p.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
			recs = append(recs, core.Record{Key: k, Value: v})
			return true
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	emitted := 0
	for _, r := range recs {
		emitted++
		if !emit(r.Key, r.Value) {
			break
		}
	}
	return emitted
}

// BulkLoad replaces the contents with the key-sorted recs as the main
// partition.
func (t *Tree) BulkLoad(recs []core.Record) error {
	for _, p := range t.partitions() {
		_ = p.Drop()
	}
	t.sealed = nil
	fresh, err := btree.New(t.pool, btree.Config{})
	if err != nil {
		return err
	}
	t.active = fresh
	main, err := btree.New(t.pool, btree.Config{})
	if err != nil {
		return err
	}
	if err := main.BulkLoad(recs); err != nil {
		return err
	}
	t.main = main
	return nil
}
