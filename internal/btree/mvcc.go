// MVCC snapshot reads for the B+-tree: path-copying on mutation over the
// shared version set (storage.VersionSet, which owns the epoch, the retention
// window and the reclamation rule).
//
// The design is shadow paging amortized over a publish interval. The version
// set records the write epoch every page was born in. Mutating a page born in
// the current epoch is done in place — nobody else can see it yet. Mutating
// a page from an earlier epoch first copies it to a fresh page (writable),
// re-points the parent, and retires the original: published versions keep
// reading the untouched original bytes. Publish flushes the buffer pool so
// every reachable page is materialized on the device, hands the current root
// and a storage.PageView to the version set, and thereby advances the epoch
// — making all surviving pages copy-on-write. Retired pages are reported
// through Size() and SnapshotStats() until the set reclaims them.
package btree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// state is what one published version freezes besides its page images.
type state struct {
	root   storage.PageID
	height int
	count  int
}

type version = storage.Version[state]

func (t *Tree) mvccOn() bool { return t.vs != nil }

// initMVCC attaches the version set when the tree is configured for
// snapshots; the set frees every page it reclaims.
func (t *Tree) initMVCC() {
	if t.cfg.Versions == 0 {
		return
	}
	t.vs = storage.NewVersionSet[state](t.cfg.Versions, func(pid storage.PageID) {
		_ = t.pool.FreePage(pid) // retired pages are unpinned and live; a failed free could only leak
	})
}

func (t *Tree) state() state { return state{root: t.root, height: t.height, count: t.count} }

// newPage allocates a page through the pool and records its birth, so that
// writable can tell private pages from published ones. It and freePage bump
// Tree.stamp, which invalidates the routes Prefetch kept.
func (t *Tree) newPage(c rum.Class) (*storage.Frame, error) {
	return t.born(t.pool.NewPage(c))
}

// born records the birth of a page the pool has just allocated.
func (t *Tree) born(f *storage.Frame, err error) (*storage.Frame, error) {
	if err != nil {
		return nil, err
	}
	t.stamp++
	t.vs.Born(f.ID())
	return f, nil
}

// freePage releases a page that is leaving the tree. A private page (every
// page outside MVCC) was never published and is freed at once; anything
// older may be reachable from a published version and is retired instead.
func (t *Tree) freePage(pid storage.PageID) error {
	t.stamp++
	if t.vs.Private(pid) {
		return t.pool.FreePage(pid)
	}
	t.vs.Retire(pid)
	return nil
}

// writable returns a frame whose page may be mutated in place. For a private
// page (every page outside MVCC) that is the frame itself. For a page shared
// with published versions it allocates a copy, retires the original, and
// returns the copy — the caller must re-point the parent at the new id. On
// error the input frame has been released.
func (t *Tree) writable(f *storage.Frame) (*storage.Frame, error) {
	pid := f.ID()
	if t.vs.Private(pid) {
		return f, nil
	}
	class := rum.Base
	if !(node{f.Data()}).isLeaf() {
		class = rum.Aux
	}
	nf, err := t.born(t.pool.NewPageForOverwrite(class)) // the copy below writes every byte
	if err != nil {
		t.pool.Release(f)
		return nil, err
	}
	nf.MarkDirty()
	copy(nf.Data(), f.Data())
	t.pool.Release(f)
	t.vs.Retire(pid)
	t.stats.CowCopies++
	return nf, nil
}

// descendToLeafW walks from the root to the leaf covering k, making every
// node on the path writable and re-pointing parents as copies happen. It is
// the mutation-path descent for Update and Delete; outside MVCC it behaves
// exactly like descendToLeaf. It takes k's memoized route where there is one:
// a copy made on the way down routes k as its original did.
func (t *Tree) descendToLeafW(k core.Key) (*storage.Frame, error) {
	path := t.memoPath(k)
	f, err := t.pool.Fetch(t.root)
	if err != nil {
		return nil, err
	}
	if f, err = t.writable(f); err != nil {
		return nil, err
	}
	t.root = f.ID()
	for l := 1; ; l++ {
		n := node{f.Data()}
		if n.isLeaf() {
			return f, nil
		}
		child := childOf(n, k, path, l)
		cf, err := t.pool.Fetch(child)
		if err != nil {
			t.pool.Release(f)
			return nil, err
		}
		if cf, err = t.writable(cf); err != nil {
			t.pool.Release(f)
			return nil, err
		}
		if cf.ID() != child {
			f.MarkDirty()
			t.replaceChild(node{f.Data()}, k, cf.ID())
		}
		t.pool.Release(f)
		f = cf
	}
}

// The range-read kernel, shared by the live tree and its snapshots — they
// differ only in where a page's bytes come from (the pool, or a PageView).

// emitRange offers the leaf's records with keys in [lo, hi] to emit, in key
// order, and reports how many it offered and whether the scan should
// continue into the next leaf.
func (n node) emitRange(lo, hi core.Key, emit func(core.Key, core.Value) bool) (int, bool) {
	emitted := 0
	for i := n.leafSearch(lo); i < n.count(); i++ {
		k := n.leafKey(i)
		if k > hi {
			return emitted, false
		}
		emitted++
		if !emit(k, n.leafValue(i)) {
			return emitted, false
		}
	}
	return emitted, true
}

// childRange returns the half-open range of child slots of an internal node
// whose key ranges intersect [lo, hi]. Slot 0 is the leftmost child; slot i
// covers [key_{i-1}, key_i), so a key's slot is the count of separators at
// or below it.
func (n node) childRange(lo, hi core.Key) (from, to int) {
	return n.intSearch(lo), n.intSearch(hi) + 1
}

// child returns the page in child slot i (see childRange).
func (n node) child(i int) storage.PageID {
	if i == 0 {
		return n.link()
	}
	return n.intChild(i - 1)
}

// scanSubtree emits records in [lo, hi] under pid in key order without using
// the leaf chain, descending through internal separators instead. It reports
// whether the scan should continue past this subtree.
func (t *Tree) scanSubtree(pid storage.PageID, lo, hi core.Key, emit func(core.Key, core.Value) bool) (int, bool) {
	f, err := t.pool.Fetch(pid)
	if err != nil {
		return 0, false
	}
	n := node{f.Data()}
	if n.isLeaf() {
		emitted, cont := n.emitRange(lo, hi, emit)
		t.pool.Release(f)
		return emitted, cont
	}
	// Collect overlapping children, then release the parent before
	// recursing to respect the pool's pin budget (same as freeAll).
	from, to := n.childRange(lo, hi)
	children := make([]storage.PageID, 0, n.count()+1)
	for ci := from; ci < to; ci++ {
		children = append(children, n.child(ci))
	}
	t.pool.Release(f)
	total := 0
	for _, c := range children {
		got, cont := t.scanSubtree(c, lo, hi, emit)
		total += got
		if !cont {
			return total, false
		}
	}
	return total, true
}

// Publish makes the current tree state available to Acquire as a new
// immutable version (core.SnapshotReader). It flushes the pool so every
// reachable page is materialized on the device, then publishes the root with
// a PageView for lock-free readers — which advances the epoch, trims the
// retention window and reclaims what no live version pins.
func (t *Tree) Publish() error {
	if !t.mvccOn() {
		return core.ErrNoSnapshots
	}
	t.pool.FlushAll()
	t.vs.Publish(t.state(), t.pool.Device().View())
	return nil
}

// CheckpointBarrier is Publish for a durability checkpoint rather than a
// reader snapshot: it flushes the pool so every page of the current state is
// materialized on the device and publishes the state as a barrier version —
// no PageView, because nobody will read it; it exists only to anchor
// reclamation. While the version sits in the retention window, every page it
// references stays byte-stable on the device (copy-on-write plus the
// version set's reclamation lag), which is exactly what a write-ahead log's
// checkpoint record needs: the root it names must still be intact when a
// crash forces recovery back to it, even if later barriers have run since.
//
// The barrier fails — changing nothing — if the flush could not write every
// dirty page back; a checkpoint over a half-flushed image would anchor a
// state the device does not hold.
func (t *Tree) CheckpointBarrier() error {
	if !t.mvccOn() {
		return core.ErrNoSnapshots
	}
	t.pool.FlushAll()
	if n := t.pool.DirtyCount(); n != 0 {
		return fmt.Errorf("btree: checkpoint barrier left %d dirty pages", n)
	}
	t.vs.Publish(t.state(), nil)
	return nil
}

// Acquire returns the newest published version with a reference held, or
// nil if there is nothing readable — nothing published yet, or the newest
// version is a CheckpointBarrier / RecoverAt barrier (core.SnapshotReader).
// Writer-side call; the returned snapshot's methods are safe from any
// goroutine.
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

// retainedBytes is the space held by retired-but-unreclaimed pages.
func (t *Tree) retainedBytes() uint64 {
	return uint64(t.vs.Retired()) * uint64(t.pool.Device().PageSize())
}

// Snapshot is an immutable point-in-time view of the tree
// (core.Snapshot); Epoch, Retain and Release come with the embedded version.
// Get, GetBatch and RangeScan are safe for concurrent use from any goroutine:
// they touch only the version's PageView and the caller's own meter, with
// zero coordination. The physical accounting is per page touched — snapshot
// readers run uncached (no shared buffer pool, which would need locking), so
// a point read costs one page read per level, alone or in a batch: GetBatch
// is defined as len(keys) Gets and differs from the loop only in how many of
// those page reads it has in flight at once.
type Snapshot struct {
	*version
	pageSize int
}

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return s.State.count }

// page returns the image of pid as of the snapshot, charging the read to m.
func (s *Snapshot) page(pid storage.PageID, m *rum.Meter) node {
	view := s.View()
	m.CountRead(view.Class(pid), s.pageSize)
	return node{view.Page(pid)}
}

// Get returns the value stored under k as of the snapshot, charging one
// page read per level to m. Allocation-free: the quiet read path.
func (s *Snapshot) Get(k core.Key, m *rum.Meter) (core.Value, bool) {
	pid := s.State.root
	for {
		n := s.page(pid, m)
		if n.isLeaf() {
			i := n.leafSearch(k)
			if i < n.count() && n.leafKey(i) == k {
				return n.leafValue(i), true
			}
			return 0, false
		}
		pid = n.child(n.intSearch(k))
	}
}

// GetBatch is len(keys) Gets (core.Snapshot): vals[i], oks[i] and the totals
// charged to m are exactly what Get(keys[i], m) in a loop would leave. The
// keys descend core.GroupWidth at a time, level by level — a B+-tree is
// balanced, so a group's keys all reach their leaves on the same step — and
// within a level core.SearchGroup advances the group's searches together.
// Reordering the page reads is free here and only here: a snapshot's pages
// are immutable, no pool or hook sees the reads, and the meter is a sum.
// Allocation-free.
func (s *Snapshot) GetBatch(keys []core.Key, vals []core.Value, oks []bool, m *rum.Meter) {
	var (
		g    group
		pids [core.GroupWidth]storage.PageID
	)
	for len(keys) > 0 {
		w := min(len(keys), core.GroupWidth)
		ks := keys[:w]
		for i := range ks {
			pids[i] = s.State.root
		}
		for {
			for i := range ks {
				g.pages[i] = s.page(pids[i], m).data
			}
			leaf := g.node(0).isLeaf()
			g.step(ks, leaf, &pids)
			if leaf {
				break
			}
		}
		for i, k := range ks {
			vals[i], oks[i] = g.found(i, k)
		}
		keys, vals, oks = keys[w:], vals[w:], oks[w:]
	}
}

// RangeScan emits snapshot records with lo <= key <= hi in key order,
// charging one page read per node visited to m.
func (s *Snapshot) RangeScan(lo, hi core.Key, m *rum.Meter, emit func(core.Key, core.Value) bool) int {
	n, _ := s.scan(s.State.root, lo, hi, m, emit)
	return n
}

func (s *Snapshot) scan(pid storage.PageID, lo, hi core.Key, m *rum.Meter, emit func(core.Key, core.Value) bool) (int, bool) {
	n := s.page(pid, m)
	if n.isLeaf() {
		return n.emitRange(lo, hi, emit)
	}
	total := 0
	for ci, to := n.childRange(lo, hi); ci < to; ci++ {
		got, cont := s.scan(n.child(ci), lo, hi, m, emit)
		total += got
		if !cont {
			return total, false
		}
	}
	return total, true
}
