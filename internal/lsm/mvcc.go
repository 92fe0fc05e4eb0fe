// MVCC snapshot reads for the LSM tree. The LSM is naturally close to
// multi-versioned: runs are immutable once built, so a snapshot is just (a
// frozen copy of the memtable contents, a copy of the run directory, a
// storage.PageView over the device). Publish freezes those three into the
// shared version set (storage.VersionSet, which owns the epoch, the
// retention window and the reclamation rule); compaction keeps rewriting the
// live run directory and retires the pages of compacted-away runs to the
// set, playing the role the btree's copy-on-write plays there.
package lsm

import (
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// state is what one published version freezes besides its page images.
type state struct {
	mem    []core.Record // frozen memtable contents, key-sorted
	levels [][]*run      // frozen run directory (runs are immutable)
	count  int
}

type version = storage.Version[state]

func (t *Tree) mvccOn() bool { return t.vs != nil }

// retainedBytes is the space snapshot isolation holds beyond the live tree:
// retired run pages plus the frozen memtable copies of the retained versions.
func (t *Tree) retainedBytes() uint64 {
	b := uint64(t.vs.Retired()) * uint64(t.pool.Device().PageSize())
	for _, v := range t.vs.Window() {
		b += uint64(len(v.State.mem)) * core.RecordSize
	}
	return b
}

// Publish makes the current state available to Acquire as a new immutable
// version (core.SnapshotReader): it freezes the memtable contents (one
// sequential memtable read, charged), flushes dirty run pages so the view is
// fully materialized, copies the run directory and publishes the three —
// which advances the epoch and reclaims what no live version pins.
func (t *Tree) Publish() error {
	if !t.mvccOn() {
		return core.ErrNoSnapshots
	}
	frozen := make([]core.Record, 0, t.mem.Len())
	t.mem.Ascend(0, func(k core.Key, v core.Value) bool {
		frozen = append(frozen, core.Record{Key: k, Value: v})
		return true
	})
	t.meter.CountRead(rum.Base, len(frozen)*core.RecordSize)
	t.pool.FlushAll()
	levels := make([][]*run, len(t.levels))
	for i, lv := range t.levels {
		levels[i] = append([]*run(nil), lv...)
	}
	t.vs.Publish(state{mem: frozen, levels: levels, count: t.count}, t.pool.Device().View())
	return nil
}

// Acquire returns the newest published version with a reference held, or
// nil if nothing has been published yet (core.SnapshotReader).
func (t *Tree) Acquire() core.Snapshot {
	v := t.vs.Acquire()
	if v == nil {
		return nil
	}
	return &Snapshot{version: v, pageSize: t.pool.Device().PageSize()}
}

// SnapshotStats reports the current version state (core.SnapshotReader).
func (t *Tree) SnapshotStats() core.SnapshotStats {
	return core.SnapshotStats{
		Epoch:         t.vs.Epoch(),
		Versions:      len(t.vs.Window()),
		RetainedBytes: t.retainedBytes(),
	}
}

// Snapshot is an immutable point-in-time view of the LSM tree
// (core.Snapshot); Epoch, Retain and Release come with the embedded version.
// Get and RangeScan are safe for concurrent use from any goroutine: they
// touch only the frozen memtable slice, immutable runs, the version's
// PageView, and the caller's own meter.
type Snapshot struct {
	*version
	pageSize int
}

// Len returns the live record estimate as of the snapshot.
func (s *Snapshot) Len() int { return s.State.count }

// Get consults the frozen memtable, then runs newest to oldest, exactly like
// the live read path, charging all probe and page traffic to m.
func (s *Snapshot) Get(k core.Key, m *rum.Meter) (core.Value, bool) {
	if v, ok := s.memGet(k, m); ok {
		if v == Tombstone {
			return 0, false
		}
		return v, true
	}
	for _, lv := range s.State.levels {
		for i := len(lv) - 1; i >= 0; i-- { // newest run last
			v, status := s.searchRun(lv[i], k, m)
			if status == foundValue {
				return v, true
			}
			if status == foundTombstone {
				return 0, false
			}
		}
	}
	return 0, false
}

// GetBatch is the plain loop over Get (core.Snapshot): no benchmark workload
// serves LSM snapshots, so a group probe of the runs has nothing to be
// measured against yet.
func (s *Snapshot) GetBatch(keys []core.Key, vals []core.Value, oks []bool, m *rum.Meter) {
	for i, k := range keys {
		vals[i], oks[i] = s.Get(k, m)
	}
}

// memGet binary-searches the frozen memtable, charging one record read per
// probe (the frozen copy has no skiplist towers to traverse).
func (s *Snapshot) memGet(k core.Key, m *rum.Meter) (core.Value, bool) {
	lo, hi := 0, len(s.State.mem)
	for lo < hi {
		mid := (lo + hi) / 2
		m.CountRead(rum.Base, core.RecordSize)
		if s.State.mem[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.State.mem) && s.State.mem[lo].Key == k {
		return s.State.mem[lo].Value, true
	}
	return 0, false
}

// searchRun is Tree.searchRun with the page read off the view, uncached and
// charged to m.
func (s *Snapshot) searchRun(r *run, k core.Key, m *rum.Meter) (core.Value, searchStatus) {
	pi, ok := r.locate(k, m)
	if !ok {
		return 0, notFound
	}
	m.CountRead(rum.Base, s.pageSize)
	return searchPage(s.View().Page(r.pages[pi]), k)
}

// RangeScan merges the frozen memtable and every overlapping run, emitting
// live records in ascending key order and charging traffic to m. Sources are
// materialized in the same fixed order as Tree.RangeScan.
func (s *Snapshot) RangeScan(lo, hi core.Key, m *rum.Meter, emit func(core.Key, core.Value) bool) int {
	sources := make([][]core.Record, 0, countRuns(s.State.levels)+1)
	for i := len(s.State.levels) - 1; i >= 0; i-- { // oldest to newest
		for _, r := range s.State.levels[i] {
			sources = append(sources, s.scanRun(r, lo, hi, m))
		}
	}
	mem := s.State.mem
	mem = mem[sort.Search(len(mem), func(i int) bool { return mem[i].Key >= lo }):]
	mem = mem[:sort.Search(len(mem), func(i int) bool { return mem[i].Key > hi })]
	m.CountRead(rum.Base, len(mem)*core.RecordSize)
	return emitMerged(append(sources, mem), emit)
}

// scanRun is Tree.scanRun with the pages read off the view, uncached and
// charged to m.
func (s *Snapshot) scanRun(r *run, lo, hi core.Key, m *rum.Meter) []core.Record {
	var recs []core.Record
	for _, pid := range r.overlapPages(lo, hi, m) {
		m.CountRead(rum.Base, s.pageSize)
		recs = appendInRange(recs, s.View().Page(pid), lo, hi)
	}
	return recs
}
