// Package btree implements a disk-style B+-tree over the simulated pager,
// the canonical read-optimized access method of Table 1 and the top corner
// of the RUM triangle of Figure 1: logarithmic point and range queries at
// the price of index space (internal nodes, page slack) and per-update page
// writes.
//
// The tree is tuned when it is built (Config): leaf capacity and bulk-load
// fill factor can be set below the physical page capacity, trading space
// amplification against tree height and split frequency.
package btree

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// Config tunes the tree.
type Config struct {
	// MaxLeaf caps entries per leaf; 0 means the full page capacity.
	MaxLeaf int
	// BulkFill is the leaf fill fraction used by BulkLoad (0 means 1.0:
	// pack pages full; lower values leave split slack, trading space for
	// fewer early splits).
	BulkFill float64
	// Versions enables MVCC snapshot reads when > 0: mutations copy-on-write
	// pages shared with published versions, Publish stamps an immutable
	// epoch-numbered root, and up to Versions published versions are
	// retained for concurrent readers (see mvcc.go). 0 keeps the classic
	// single-owner tree with in-place mutation and eager page reuse.
	Versions int
}

// Stats counts structural events.
type Stats struct {
	LeafSplits     uint64
	InternalSplits uint64
	LeafPages      uint64
	InternalPages  uint64
	// CowCopies counts pages copied by the MVCC copy-on-write discipline —
	// the physical update-overhead tax of snapshot isolation.
	CowCopies uint64
}

// Tree is a B+-tree. Leaves store full records (a clustered primary
// organization): leaf pages are allocated as base data, internal pages as
// auxiliary data. Not safe for concurrent use.
type Tree struct {
	pool   *storage.BufferPool
	cfg    Config
	root   storage.PageID
	height int
	count  int
	stats  Stats

	leafCap int // effective leaf capacity
	intCap  int // internal capacity: the page's

	// MVCC state: epoch, published versions, page births and retired pages
	// (nil when cfg.Versions == 0; see mvcc.go).
	vs *storage.VersionSet[state]

	batch batchScratch // GetBatch's, so that a call allocates nothing

	// stamp counts page allocations and frees (newPage, freePage). Every
	// change to a key's route allocates or frees: a split, a new root, a
	// copy-on-write, BulkLoad, Drop; a lazy delete moves none. So a route
	// computed under an unchanged stamp and height still holds.
	stamp  uint64
	routes routeMemo // the last Prefetch's routes
}

// routeMemo is what the last Prefetch's plan found: the j-th kept key's
// page on each level, root first, at paths[j*height:(j+1)*height], kept
// under the stamp and height it was computed at. A serving shard runs a
// message's operations in the order it hinted their keys, so lookups
// advance a cursor (next) instead of hashing.
type routeMemo struct {
	keys         []core.Key
	paths        []storage.PageID
	stamp        uint64
	height, next int
}

// batchScratch is one GetBatch group's plan: path[l][i] is key i's page on
// level l (the root's is 0), read by the plan for l < planned[i]; wave holds
// a level's pages that were not resident.
type batchScratch struct {
	group
	path    [][core.GroupWidth]storage.PageID
	planned [core.GroupWidth]int
	wave    [core.GroupWidth]storage.PageID
}

// New creates an empty tree on pool. The pool's device meter receives all
// physical traffic.
func New(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	t := &Tree{pool: pool, cfg: cfg}
	if err := t.applyConfig(); err != nil {
		return nil, err
	}
	t.initMVCC()
	f, err := t.newPage(rum.Base)
	if err != nil {
		return nil, err
	}
	f.MarkDirty()
	node{f.Data()}.setKind(kindLeaf)
	node{f.Data()}.setLink(storage.InvalidPage)
	t.root = f.ID()
	pool.Release(f)
	t.height = 1
	t.stats.LeafPages = 1
	return t, nil
}

func (t *Tree) applyConfig() error {
	page := t.pool.Device().PageSize()
	physLeaf := (page - headerSize) / leafEntrySize
	t.leafCap = physLeaf
	if t.cfg.MaxLeaf > 0 && t.cfg.MaxLeaf < physLeaf {
		t.leafCap = t.cfg.MaxLeaf
	}
	t.intCap = (page - headerSize) / intEntrySize
	if t.leafCap < 4 || t.intCap < 4 {
		return fmt.Errorf("btree: page size %d too small for capacities (leaf %d, internal %d)", page, t.leafCap, t.intCap)
	}
	if t.cfg.BulkFill < 0 || t.cfg.BulkFill > 1 {
		return fmt.Errorf("btree: bulk fill %v out of range", t.cfg.BulkFill)
	}
	if t.cfg.Versions < 0 {
		return fmt.Errorf("btree: versions %d out of range", t.cfg.Versions)
	}
	return nil
}

// Name identifies the tree and its effective fanout.
func (t *Tree) Name() string { return fmt.Sprintf("btree(B=%d)", t.leafCap) }

// Height returns the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of records.
func (t *Tree) Len() int { return t.count }

// Root returns the current root page id. Under MVCC the root moves on every
// mutating operation (copy-on-write re-points the whole path), so after a
// CheckpointBarrier the root uniquely identifies the barriered state — which
// is exactly what the WAL stores in its checkpoint records for RecoverAt.
func (t *Tree) Root() storage.PageID { return t.root }

// Stats returns structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Pool returns the buffer pool the tree runs on (experiments inspect the
// device beneath it).
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Meter returns the device meter accumulating physical traffic.
func (t *Tree) Meter() *rum.Meter { return t.pool.Device().Meter() }

// Size reports the records as base bytes and everything else the tree's
// pages occupy (internal nodes, slack) as auxiliary bytes. Under MVCC,
// retired pages pinned by the retention window count as auxiliary bytes too:
// they are the memory-overhead tax paid for snapshot isolation.
func (t *Tree) Size() rum.SizeInfo {
	pageBytes := (t.stats.LeafPages + t.stats.InternalPages) * uint64(t.pool.Device().PageSize())
	base := uint64(t.count) * core.RecordSize
	if base > pageBytes {
		base = pageBytes
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: pageBytes - base + t.retainedBytes()}
}

// Flush writes all buffered dirty pages to the device.
func (t *Tree) Flush() { t.pool.FlushAll() }

// descendToLeaf walks from page pid to the leaf covering k, along path
// (path[0] is pid) where k has a memoized one (memoPath), by searching each
// node where path is nil.
func (t *Tree) descendToLeaf(pid storage.PageID, k core.Key, path []storage.PageID) (*storage.Frame, error) {
	for l := 1; ; l++ {
		f, err := t.pool.Fetch(pid)
		if err != nil {
			return nil, err
		}
		n := node{f.Data()}
		if n.isLeaf() {
			return f, nil
		}
		pid = childOf(n, k, path, l)
		t.pool.Release(f)
	}
}

// childOf is the child of n that k routes to: path[l] where k's route is
// memoized, the slot intSearch finds where path is nil.
func childOf(n node, k core.Key, path []storage.PageID, l int) storage.PageID {
	if path == nil {
		return n.child(n.intSearch(k))
	}
	checkRoute(n, k, path[l])
	return path[l]
}

// memoPath returns k's route as the last Prefetch planned it, root first,
// or nil where that Prefetch kept none or a page has been allocated or freed
// since. The lookup scans forward from the cursor for k and moves the
// cursor past the entry it returns.
func (t *Tree) memoPath(k core.Key) []storage.PageID {
	r := &t.routes
	if r.stamp != t.stamp || r.height != t.height {
		return nil
	}
	for j := r.next; j < len(r.keys); j++ {
		if r.keys[j] == k {
			r.next = j + 1
			return r.paths[j*r.height : (j+1)*r.height]
		}
	}
	return nil
}

// Get returns the value stored under k.
func (t *Tree) Get(k core.Key) (core.Value, bool) { return t.get(t.root, k, t.memoPath(k)) }

// get is Get from page pid down, along path where it is not nil.
func (t *Tree) get(pid storage.PageID, k core.Key, path []storage.PageID) (core.Value, bool) {
	f, err := t.descendToLeaf(pid, k, path)
	if err != nil {
		return 0, false
	}
	defer t.pool.Release(f)
	n := node{f.Data()}
	i := n.leafSearch(k)
	if i < n.count() && n.leafKey(i) == k {
		return n.leafValue(i), true
	}
	return 0, false
}

// GetBatch is len(keys) Gets (core.BatchGetter): the same values. On a pool
// that does not batch I/O it also makes exactly the pool calls those Gets
// make, in the same order, so pool stats, hook events, LRU order, victims,
// write-back groups and the meter are the loop's. Keys go core.GroupWidth
// at a time. A group first runs the plan (planGroup), taking each value from
// its leaf; a key whose next page is not resident stops there. Then, key by
// key, it replays Get's Fetch and Release of every page the plan read and
// runs Get itself from where a key stopped. No frame stays pinned across
// keys (DESIGN §9). Where the last Prefetch kept the route of every key of
// a group and no page has been allocated or freed since, the plan takes the
// children from those routes instead of searching the internal levels; it
// peeks, reads and re-peeks as before, so the pool calls are the same.
// Allocation-free once the scratch covers the height.
func (t *Tree) GetBatch(keys []core.Key, vals []core.Value, oks []bool) {
	t.growPlan()
	least := minGroup
	if t.pool.BatchIO() {
		least = 2 // a wave of two pages saves a whole read
	}
	for len(keys) > 0 {
		n := min(len(keys), core.GroupWidth)
		if n < least {
			for i, k := range keys {
				vals[i], oks[i] = t.Get(k)
			}
			return
		}
		t.getGroup(keys[:n], vals[:n], oks[:n])
		keys, vals, oks = keys[n:], vals[n:], oks[n:]
	}
}

// minGroup is the smallest group whose overlap pays for the second pass; a
// shorter one is Get's loop, which makes the same calls (DESIGN §9: the
// per-key cost by group size, and the share of each workload's runs).
const minGroup = 3

func (t *Tree) getGroup(keys []core.Key, vals []core.Value, oks []bool) {
	b := &t.batch
	t.planGroup(keys, true, math.MaxInt) // no budget: Readahead clamps each wave to half the pool
	// A peeked image is good only until the first Fetch: every value first.
	for i, k := range keys {
		vals[i], oks[i] = b.found(i, k)
	}
	for i, k := range keys {
		l := 0
		for ; l < b.planned[i]; l++ {
			f, err := t.pool.Fetch(b.path[l][i])
			if err != nil {
				break
			}
			t.pool.Release(f)
		}
		if l < b.planned[i] {
			vals[i], oks[i] = 0, false // a failed Fetch fails Get too
		} else if l < t.height {
			vals[i], oks[i] = t.get(b.path[l][i], k, nil)
		}
	}
}

// Prefetch (core.Prefetcher) reads ahead the pages Gets of keys would read,
// core.GroupWidth keys at a time, by GetBatch's plan without the leaf
// search: each level's missing pages go to the pool as one Readahead wave. It
// installs only clean, unpinned pages, so every later call returns what it
// would have returned without the hint; a mutation of a prefetched key
// finds its leaf resident instead of paying a read of its own. The waves of
// one call read at most prefetchBudget pages; the keys past that are left
// to their own reads. Where the pool does not batch I/O
// (storage.BufferPool.BatchIO) or the budget is below two pages (a wave of
// one saves nothing) it makes no pool call at all. It keeps the route of
// every key its plan took to the leaf level (routeMemo): until a page is
// allocated or freed, the Gets, GetBatches and writes of those keys that
// follow, in the order they were hinted, take their children from it
// instead of searching the internal nodes, and make the same pool calls.
// Allocation-free once the scratch covers the height.
func (t *Tree) Prefetch(keys []core.Key) {
	budget := t.prefetchBudget()
	if !t.pool.BatchIO() || budget < 2 {
		return
	}
	t.growPlan()
	r := &t.routes
	r.keys, r.paths, r.stamp, r.height, r.next = r.keys[:0], r.paths[:0], t.stamp, t.height, 0
	for len(keys) > 0 && budget > 0 {
		n := min(len(keys), core.GroupWidth)
		budget -= t.planGroup(keys[:n], false, budget)
		t.keepRoutes(keys[:n])
		keys = keys[n:]
	}
}

// keepRoutes memoizes the path of every key of the group just planned whose
// plan reached the leaf level; past that level a lane's path is not a route.
func (t *Tree) keepRoutes(keys []core.Key) {
	b, r := &t.batch, &t.routes
	for i, k := range keys {
		if b.planned[i] < t.height-1 {
			continue
		}
		r.keys = append(r.keys, k)
		for l := range t.height {
			r.paths = append(r.paths, b.path[l][i])
		}
	}
}

// prefetchBudget is how many pages one Prefetch may read: half the pool, as
// Readahead reads into at most half of it at once, less a frame per level
// for the descents that follow. Operations that touch more pages before
// they reach their own evict what was read for them before they use it; on
// pools of a few frames that leaves nothing (DESIGN §9).
func (t *Tree) prefetchBudget() int { return t.pool.Capacity()/2 - t.height }

// growPlan sizes the group plan's path for the tree's height.
func (t *Tree) growPlan() {
	if len(t.batch.path) <= t.height {
		t.batch.path = make([][core.GroupWidth]storage.PageID, t.height+1)
	}
}

// planGroup descends for keys (at most core.GroupWidth) in lock-step over
// BufferPool.Peek, which touches nothing: level by level it loads each key's
// page where it is resident, hands the level's missing pages to the pool as
// one Readahead wave (a no-op where the pool does not batch I/O), peeks the
// level again, since the wave may have evicted a page the first pass saw,
// and routes every key to its child (group.step). The path and planned of
// t.batch record how far each key got. With search the leaf level is
// searched too, for group.found; without, the plan ends at the leaf wave.
// A search whose every key has a memoized route (routeGroup) takes the
// internal levels' children from it and skips their steps; the peeks, which
// decide planned, and the waves stay. The waves read at most budget pages
// in all; planGroup returns how many they read.
func (t *Tree) planGroup(keys []core.Key, search bool, budget int) (read int) {
	b := &t.batch
	for i := range keys {
		b.path[0][i], b.planned[i] = t.root, 0
	}
	routed := search && t.routeGroup(keys)
	for l := 0; l < t.height; l++ {
		wave, leaf := t.peekLevel(len(keys), l), l == t.height-1
		installed := 0
		if wave = wave[:min(len(wave), budget-read)]; len(wave) > 0 {
			installed = t.pool.Readahead(wave)
			read += installed
		}
		if leaf && !search {
			break
		}
		if installed > 0 {
			t.peekLevel(len(keys), l)
		}
		if routed && !leaf {
			checkGroupRoutes(b, keys, l)
			continue
		}
		b.step(keys, leaf, &b.path[l+1])
	}
	return read
}

// routeGroup writes the memoized route of every key of the group into the
// plan's path and reports whether each key had one.
func (t *Tree) routeGroup(keys []core.Key) bool {
	b := &t.batch
	for i, k := range keys {
		path := t.memoPath(k)
		if path == nil {
			return false
		}
		for l := 1; l < len(path); l++ {
			b.path[l][i] = path[l]
		}
	}
	return true
}

// peekLevel loads level l's resident pages into the group's pages for the
// first n keys whose plan reached l, and returns the ids of those that are
// not resident, repeats included (Readahead reads a page once).
func (t *Tree) peekLevel(n, l int) []storage.PageID {
	b := &t.batch
	wave := b.wave[:0]
	for i := 0; i < n; i++ {
		b.pages[i] = emptyNode
		if b.planned[i] < l {
			continue
		}
		if img := t.pool.Peek(b.path[l][i]); img != nil {
			b.pages[i], b.planned[i] = img, l+1
		} else {
			b.planned[i] = l
			wave = append(wave, b.path[l][i])
		}
	}
	return wave
}

// splitResult carries a completed child split up the recursion.
type splitResult struct {
	sep   core.Key
	right storage.PageID
	split bool
}

// Insert adds a record, splitting nodes as needed.
func (t *Tree) Insert(k core.Key, v core.Value) error {
	nroot, res, err := t.insert(t.root, k, v, t.memoPath(k), 0)
	if err != nil {
		return err
	}
	t.root = nroot
	if res.split {
		// Grow a new root.
		f, err := t.newPage(rum.Aux)
		if err != nil {
			return err
		}
		f.MarkDirty()
		n := node{f.Data()}
		n.setKind(kindInternal)
		n.setLink(t.root)
		n.setIntEntry(0, res.sep, res.right)
		n.setCount(1)
		t.root = f.ID()
		t.pool.Release(f)
		t.height++
		t.stats.InternalPages++
	}
	t.count++
	return nil
}

// insert adds (k, v) to the subtree rooted at pid, the level-l page. It
// descends along path where k's route is memoized (see descendToLeaf). It
// returns the subtree's possibly-new root page: under MVCC, mutating a page
// shared with a published version copies it (writable), so the caller must
// re-point its child entry when the returned id differs from pid.
func (t *Tree) insert(pid storage.PageID, k core.Key, v core.Value, path []storage.PageID, l int) (storage.PageID, splitResult, error) {
	f, err := t.pool.Fetch(pid)
	if err != nil {
		return pid, splitResult{}, err
	}
	n := node{f.Data()}

	if n.isLeaf() {
		i := n.leafSearch(k)
		if i < n.count() && n.leafKey(i) == k {
			t.pool.Release(f)
			return pid, splitResult{}, core.ErrKeyExists
		}
		if f, err = t.writable(f); err != nil {
			return pid, splitResult{}, err
		}
		f.MarkDirty()
		n = node{f.Data()}
		npid := f.ID()
		if n.count() < t.leafCap {
			n.leafInsertAt(i, k, v)
			t.pool.Release(f)
			return npid, splitResult{}, nil
		}
		res, err := t.splitLeaf(f, i, k, v)
		t.pool.Release(f)
		return npid, res, err
	}

	child := childOf(n, k, path, l+1)
	t.pool.Release(f)

	nchild, res, err := t.insert(child, k, v, path, l+1)
	if err != nil {
		return pid, splitResult{}, err
	}
	if nchild == child && !res.split {
		return pid, splitResult{}, nil
	}

	// Re-fetch the parent to register the moved child and/or new separator.
	f, err = t.pool.Fetch(pid)
	if err != nil {
		return pid, splitResult{}, err
	}
	if f, err = t.writable(f); err != nil {
		return pid, splitResult{}, err
	}
	npid := f.ID()
	f.MarkDirty() // the child moved or split: either way this node changes
	n = node{f.Data()}
	if nchild != child {
		t.replaceChild(n, k, nchild)
	}
	if !res.split {
		t.pool.Release(f)
		return npid, splitResult{}, nil
	}
	i := n.intSearch(res.sep)
	if n.count() < t.intCap {
		n.intInsertAt(i, res.sep, res.right)
		t.pool.Release(f)
		return npid, splitResult{}, nil
	}
	up, err := t.splitInternal(f, i, res.sep, res.right)
	t.pool.Release(f)
	return npid, up, err
}

// replaceChild rewrites the child pointer that routes k to point at nchild.
func (t *Tree) replaceChild(n node, k core.Key, nchild storage.PageID) {
	i := n.intSearch(k)
	if i == 0 {
		n.setLink(nchild)
		return
	}
	n.setIntEntry(i-1, n.intKey(i-1), nchild)
}

// splitLeaf splits the full leaf in f, which the caller has marked dirty,
// inserting (k, v) at logical position i of the pre-split entry sequence, and
// returns the separator for the parent.
func (t *Tree) splitLeaf(f *storage.Frame, i int, k core.Key, v core.Value) (splitResult, error) {
	left := node{f.Data()}
	c := left.count()
	mid := (c + 1) / 2

	rf, err := t.newPage(rum.Base)
	if err != nil {
		return splitResult{}, err
	}
	rf.MarkDirty()
	right := node{rf.Data()}
	right.setKind(kindLeaf)
	right.setLink(left.link())
	left.setLink(rf.ID())

	// Move the upper half to the right leaf.
	moved := c - mid
	copy(right.data[leafOff(0):leafOff(moved)], left.data[leafOff(mid):leafOff(c)])
	right.setCount(moved)
	left.setCount(mid)

	if i <= mid && (i < mid || k < right.leafKey(0)) {
		left.leafInsertAt(i, k, v)
	} else {
		right.leafInsertAt(right.leafSearch(k), k, v)
	}

	sep := right.leafKey(0)
	t.pool.Release(rf)
	t.stats.LeafSplits++
	t.stats.LeafPages++
	return splitResult{sep: sep, right: rf.ID(), split: true}, nil
}

// splitInternal splits the full internal node in f, which the caller has
// marked dirty, while inserting (sep, child) at entry position i, promoting
// the middle separator.
func (t *Tree) splitInternal(f *storage.Frame, i int, sep core.Key, child storage.PageID) (splitResult, error) {
	left := node{f.Data()}
	c := left.count()

	// Materialize the post-insert entry sequence.
	type entry struct {
		k core.Key
		c storage.PageID
	}
	entries := make([]entry, 0, c+1)
	for j := 0; j < c; j++ {
		if j == i {
			entries = append(entries, entry{sep, child})
		}
		entries = append(entries, entry{left.intKey(j), left.intChild(j)})
	}
	if i == c {
		entries = append(entries, entry{sep, child})
	}

	mid := len(entries) / 2
	promoted := entries[mid]

	rf, err := t.newPage(rum.Aux)
	if err != nil {
		return splitResult{}, err
	}
	rf.MarkDirty()
	right := node{rf.Data()}
	right.setKind(kindInternal)
	right.setLink(promoted.c)
	for j, e := range entries[mid+1:] {
		right.setIntEntry(j, e.k, e.c)
	}
	right.setCount(len(entries) - mid - 1)

	for j, e := range entries[:mid] {
		left.setIntEntry(j, e.k, e.c)
	}
	left.setCount(mid)

	t.pool.Release(rf)
	t.stats.InternalSplits++
	t.stats.InternalPages++
	return splitResult{sep: promoted.k, right: rf.ID(), split: true}, nil
}

// Update overwrites the value stored under k, reporting whether it existed.
// Under MVCC the descent copies-on-write every node on the path (the
// path-copying cost of mutating next to published versions).
func (t *Tree) Update(k core.Key, v core.Value) bool {
	f, err := t.descendToLeafW(k)
	if err != nil {
		return false
	}
	defer t.pool.Release(f)
	n := node{f.Data()}
	i := n.leafSearch(k)
	if i >= n.count() || n.leafKey(i) != k {
		return false
	}
	f.MarkDirty()
	node{f.Data()}.setLeafEntry(i, k, v)
	return true
}

// Delete removes k. Deletion is lazy (no rebalancing): the entry is removed
// from its leaf and underfull pages are tolerated, the common practice in
// production B-trees. Under MVCC the descent copies-on-write the path.
func (t *Tree) Delete(k core.Key) bool {
	f, err := t.descendToLeafW(k)
	if err != nil {
		return false
	}
	defer t.pool.Release(f)
	n := node{f.Data()}
	i := n.leafSearch(k)
	if i >= n.count() || n.leafKey(i) != k {
		return false
	}
	f.MarkDirty()
	node{f.Data()}.leafRemoveAt(i)
	t.count--
	return true
}

// RangeScan emits records with lo <= key <= hi in key order, walking the
// leaf chain: the Table-1 O(log_B N + m/B) range cost. Under MVCC the leaf
// chain is not maintained (copying a leaf would cascade through every left
// sibling's next-pointer), so the scan descends through internal nodes
// instead — the slightly higher O((m/B)·log_B N) read tax of path copying.
func (t *Tree) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	if t.mvccOn() {
		n, _ := t.scanSubtree(t.root, lo, hi, emit)
		return n
	}
	f, err := t.descendToLeaf(t.root, lo, nil)
	if err != nil {
		return 0
	}
	emitted := 0
	for {
		n := node{f.Data()}
		got, cont := n.emitRange(lo, hi, emit)
		emitted += got
		next := n.link()
		t.pool.Release(f)
		if !cont || next == storage.InvalidPage {
			return emitted
		}
		f, err = t.pool.Fetch(next)
		if err != nil {
			return emitted
		}
	}
}

// BulkLoad replaces the tree's contents with the key-sorted records,
// building leaves left to right at the configured fill factor and stacking
// internal levels above them.
func (t *Tree) BulkLoad(recs []core.Record) error {
	if err := t.freeAll(t.root); err != nil {
		return err
	}
	t.stats.LeafPages = 0
	t.stats.InternalPages = 0
	t.count = 0

	fill := t.cfg.BulkFill
	if fill == 0 {
		fill = 1.0
	}
	perLeaf := int(fill * float64(t.leafCap))
	if perLeaf < 1 {
		perLeaf = 1
	}
	perInt := int(fill * float64(t.intCap))
	if perInt < 2 {
		perInt = 2
	}

	type levelEntry struct {
		first core.Key
		pid   storage.PageID
	}

	// Build the leaf level.
	var level []levelEntry
	var prevLeaf *storage.Frame
	for start := 0; start == 0 || start < len(recs); start += perLeaf {
		end := start + perLeaf
		if end > len(recs) {
			end = len(recs)
		}
		f, err := t.newPage(rum.Base)
		if err != nil {
			return err
		}
		f.MarkDirty()
		n := node{f.Data()}
		n.setKind(kindLeaf)
		n.setLink(storage.InvalidPage)
		for j, r := range recs[start:end] {
			n.setLeafEntry(j, r.Key, r.Value)
		}
		n.setCount(end - start)
		if prevLeaf != nil {
			prevLeaf.MarkDirty()
			node{prevLeaf.Data()}.setLink(f.ID())
			t.pool.Release(prevLeaf)
		}
		prevLeaf = f
		first := core.Key(0)
		if end > start {
			first = recs[start].Key
		}
		level = append(level, levelEntry{first: first, pid: f.ID()})
		t.stats.LeafPages++
		if len(recs) == 0 {
			break
		}
	}
	if prevLeaf != nil {
		t.pool.Release(prevLeaf)
	}
	t.height = 1

	// Stack internal levels until one node remains.
	for len(level) > 1 {
		var next []levelEntry
		for start := 0; start < len(level); start += perInt + 1 {
			end := start + perInt + 1
			if end > len(level) {
				end = len(level)
			}
			// A group of one would form a childless separator; merge it into
			// the previous node when that node has physical room.
			if end-start == 1 && len(next) > 0 {
				f, err := t.pool.Fetch(next[len(next)-1].pid)
				if err != nil {
					return err
				}
				n := node{f.Data()}
				physInt := (t.pool.Device().PageSize() - headerSize) / intEntrySize
				if n.count() < physInt {
					f.MarkDirty()
					n = node{f.Data()}
					n.intInsertAt(n.count(), level[start].first, level[start].pid)
					t.pool.Release(f)
					continue
				}
				t.pool.Release(f)
				// Fall through: build a node with only a leftmost child,
				// which routes every key of the group correctly.
			}
			f, err := t.newPage(rum.Aux)
			if err != nil {
				return err
			}
			f.MarkDirty()
			n := node{f.Data()}
			n.setKind(kindInternal)
			n.setLink(level[start].pid)
			for j, e := range level[start+1 : end] {
				n.setIntEntry(j, e.first, e.pid)
			}
			n.setCount(end - start - 1)
			t.pool.Release(f)
			next = append(next, levelEntry{first: level[start].first, pid: f.ID()})
			t.stats.InternalPages++
		}
		level = next
		t.height++
	}
	t.root = level[0].pid
	t.count = len(recs)
	return nil
}

// Drop releases every page of the tree back to its pool, leaving the tree
// unusable. Composite structures (e.g. the partitioned B-tree) call it when
// retiring a partition.
func (t *Tree) Drop() error {
	if err := t.freeAll(t.root); err != nil {
		return err
	}
	t.root = storage.InvalidPage
	t.count = 0
	t.stats.LeafPages = 0
	t.stats.InternalPages = 0
	return nil
}

// freeAll releases every page of the subtree rooted at pid.
func (t *Tree) freeAll(pid storage.PageID) error {
	f, err := t.pool.Fetch(pid)
	if err != nil {
		return err
	}
	var children []storage.PageID
	if n := (node{f.Data()}); !n.isLeaf() {
		for i := 0; i <= n.count(); i++ {
			children = append(children, n.child(i))
		}
	}
	t.pool.Release(f)
	for _, c := range children {
		if err := t.freeAll(c); err != nil {
			return err
		}
	}
	return t.freePage(pid)
}
