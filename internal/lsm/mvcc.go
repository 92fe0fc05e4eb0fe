// MVCC snapshot reads for the LSM tree. The LSM is naturally close to
// multi-versioned: runs are immutable once built, so a snapshot is just (a
// frozen copy of the memtable contents, a copy of the run directory, a
// storage.PageView over the device). Publish freezes those three under an
// epoch stamp; compaction keeps rewriting the live run directory, and the
// pages of compacted-away runs are retired to an epoch-ordered queue,
// reclaimed once the minimum live version epoch passes them — the same
// reclamation rule as the btree's path-copying (see btree/mvcc.go), with
// compaction playing the role of copy-on-write.
package lsm

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// version is one published immutable view. refs counts outstanding acquired
// snapshots; atomic because Release may run on reader goroutines while the
// writer's reclamation pass inspects it.
type version struct {
	epoch  uint64
	mem    []core.Record // frozen memtable contents, key-sorted
	levels [][]*run      // frozen run directory (runs are immutable)
	count  int
	view   *storage.PageView
	refs   atomic.Int64
}

// retiredPage is a run page compacted away during the given epoch, awaiting
// reclamation.
type retiredPage struct {
	pid   storage.PageID
	epoch uint64
}

func (t *Tree) mvccOn() bool { return t.cfg.Versions > 0 }

func (t *Tree) retainedBytes() uint64 {
	if !t.mvccOn() {
		return 0
	}
	b := uint64(len(t.retired)) * uint64(t.pool.Device().PageSize())
	for _, v := range t.versions {
		b += uint64(len(v.mem)) * core.RecordSize
	}
	return b
}

// Publish makes the current state available to Acquire as a new immutable
// version (core.SnapshotReader): it freezes the memtable contents (one
// sequential memtable read, charged), flushes dirty run pages so the view is
// fully materialized, copies the run directory, stamps the version with the
// current epoch, advances the epoch, and reclaims what no live version pins.
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
	v := &version{
		epoch:  t.epoch,
		mem:    frozen,
		levels: levels,
		count:  t.count,
		view:   t.pool.Device().View(),
	}
	t.versions = append(t.versions, v)
	t.epoch++
	t.trimAndReclaim()
	return nil
}

// Acquire returns the newest published version with a reference held, or
// nil if nothing has been published yet (core.SnapshotReader).
func (t *Tree) Acquire() core.Snapshot {
	if len(t.versions) == 0 {
		return nil
	}
	v := t.versions[len(t.versions)-1]
	v.refs.Add(1)
	return &Snapshot{v: v, pageSize: t.pool.Device().PageSize()}
}

// SnapshotStats reports the current version state (core.SnapshotReader).
func (t *Tree) SnapshotStats() core.SnapshotStats {
	return core.SnapshotStats{
		Epoch:         t.epoch,
		Versions:      len(t.versions),
		RetainedBytes: t.retainedBytes(),
	}
}

// trimAndReclaim bounds retention to cfg.Versions and frees retired pages no
// live version can reach (same rule as btree: a version published at epoch e
// references only pages retired strictly after e).
func (t *Tree) trimAndReclaim() {
	for len(t.versions) > t.cfg.Versions {
		old := t.versions[0]
		t.versions = t.versions[1:]
		if old.refs.Load() > 0 {
			t.pinned = append(t.pinned, old)
		}
	}
	live := t.pinned[:0]
	for _, v := range t.pinned {
		if v.refs.Load() > 0 {
			live = append(live, v)
		}
	}
	t.pinned = live

	minLive := t.epoch
	for _, v := range t.versions {
		if v.epoch < minLive {
			minLive = v.epoch
		}
	}
	for _, v := range t.pinned {
		if v.epoch < minLive {
			minLive = v.epoch
		}
	}

	i := 0
	for i < len(t.retired) && t.retired[i].epoch <= minLive {
		_ = t.pool.FreePage(t.retired[i].pid)
		i++
	}
	if i > 0 {
		t.retired = append(t.retired[:0], t.retired[i:]...)
	}
}

// Snapshot is an immutable point-in-time view of the LSM tree
// (core.Snapshot). Get and RangeScan are safe for concurrent use from any
// goroutine: they touch only the frozen memtable slice, immutable runs, the
// version's PageView, and the caller's own meter.
type Snapshot struct {
	v        *version
	pageSize int
}

// Epoch returns the write epoch the snapshot was published at.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Len returns the live record estimate as of the snapshot.
func (s *Snapshot) Len() int { return s.v.count }

// Release drops the reference; must be called exactly once.
func (s *Snapshot) Release() { s.v.refs.Add(-1) }

// Get consults the frozen memtable, then runs newest to oldest, exactly like
// the live read path, charging all probe and page traffic to m.
func (s *Snapshot) Get(k core.Key, m *rum.Meter) (core.Value, bool) {
	if v, ok := s.memGet(k, m); ok {
		if v == Tombstone {
			return 0, false
		}
		return v, true
	}
	for _, lv := range s.v.levels {
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

// memGet binary-searches the frozen memtable, charging one record read per
// probe (the frozen copy has no skiplist towers to traverse).
func (s *Snapshot) memGet(k core.Key, m *rum.Meter) (core.Value, bool) {
	lo, hi := 0, len(s.v.mem)
	for lo < hi {
		mid := (lo + hi) / 2
		m.CountRead(rum.Base, core.RecordSize)
		if s.v.mem[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.v.mem) && s.v.mem[lo].Key == k {
		return s.v.mem[lo].Value, true
	}
	return 0, false
}

// searchRun mirrors Tree.searchRun over the view: fence checks, an
// unshared-meter bloom probe, one page read, in-page binary search.
func (s *Snapshot) searchRun(r *run, k core.Key, m *rum.Meter) (core.Value, searchStatus) {
	if r.count == 0 || k < r.first || k > r.last {
		m.CountRead(rum.Aux, 16) // min/max fence check
		return 0, notFound
	}
	if r.filter != nil && !r.filter.MayContainMetered(k, m) {
		return 0, notFound
	}
	probes := 0
	pi := sort.Search(len(r.fences), func(i int) bool {
		probes++
		return r.fences[i] > k
	}) - 1
	m.CountRead(rum.Aux, probes*fenceSize)
	if pi < 0 {
		pi = 0
	}
	data := s.v.view.Page(r.pages[pi])
	m.CountRead(rum.Base, s.pageSize)
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(data[pageHeader+mid*core.RecordSize:]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		off := pageHeader + lo*core.RecordSize
		if binary.LittleEndian.Uint64(data[off:]) == k {
			v := binary.LittleEndian.Uint64(data[off+8:])
			if v == Tombstone {
				return 0, foundTombstone
			}
			return v, foundValue
		}
	}
	return 0, notFound
}

// RangeScan merges the frozen memtable and every overlapping run, emitting
// live records in ascending key order and charging traffic to m. Sources are
// materialized in the same fixed order as Tree.RangeScan.
func (s *Snapshot) RangeScan(lo, hi core.Key, m *rum.Meter, emit func(core.Key, core.Value) bool) int {
	sources := make([][]core.Record, 0, countRuns(s.v.levels)+1)
	for i := len(s.v.levels) - 1; i >= 0; i-- { // oldest to newest
		for _, r := range s.v.levels[i] {
			sources = append(sources, s.scanRun(r, lo, hi, m))
		}
	}
	mem := s.v.mem
	mem = mem[sort.Search(len(mem), func(i int) bool { return mem[i].Key >= lo }):]
	mem = mem[:sort.Search(len(mem), func(i int) bool { return mem[i].Key > hi })]
	m.CountRead(rum.Base, len(mem)*core.RecordSize)
	return emitMerged(append(sources, mem), emit)
}

// scanRun mirrors Tree.scanRun over the view.
func (s *Snapshot) scanRun(r *run, lo, hi core.Key, m *rum.Meter) []core.Record {
	m.CountRead(rum.Aux, 16) // min/max check or fence probe, flat charge
	start := r.overlapStart(lo, hi)
	if start < 0 {
		return nil
	}
	var recs []core.Record
	for pi := start; pi < len(r.pages); pi++ {
		if pi > start && r.fences[pi] > hi {
			break
		}
		m.CountRead(rum.Base, s.pageSize)
		recs = appendInRange(recs, s.v.view.Page(r.pages[pi]), lo, hi)
	}
	return recs
}
