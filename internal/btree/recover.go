package btree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// The tree keeps its root, height, and count in memory only — there is no
// superblock and no write-ahead log. Recover therefore rebuilds the handle
// from the page images alone: it classifies every live page, finds the one
// node no internal node references (the root), and walks the candidate tree
// validating everything the layout promises — kinds, entry counts, key
// order, separator bounds, uniform depth, and the leaf chain. Anything
// inconsistent makes Recover fail loudly rather than adopt a structure that
// could serve garbage.
//
// The durability contract this supports is faults.Lossy: pages flushed
// before the crash survive, dirty pages are gone, and a crash that lands
// mid-split (some pages of the split flushed, others not) is detected by
// validation and reported as an error. Recovering acknowledged-but-unflushed
// data would need a WAL, which the paper's cost model has no column for.

// pageInfo is the classification of one live page during recovery.
type pageInfo struct {
	kind     byte
	count    int
	link     storage.PageID   // leaf: next leaf; internal: leftmost child
	children []storage.PageID // internal only: link + every entry child
	seps     []core.Key       // internal only: every separator key
	firstKey core.Key
	lastKey  core.Key
}

// Recover rebuilds a tree handle from the surviving device image under
// pool. On success the returned tree serves exactly the records of the
// flushed pages; live pages not reachable from the adopted root (orphans of
// an interrupted split, zeroed allocations) are freed. On any structural
// inconsistency — no root candidate, several plausible roots, a cycle, a
// broken leaf chain, out-of-order keys — it returns an error and frees
// nothing. Under cfg.Versions the image is adopted as RecoverAt adopts it.
func Recover(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	t := &Tree{pool: pool, cfg: cfg}
	if err := t.applyConfig(); err != nil {
		return nil, err
	}

	// Pass 1: classify every live page.
	info, err := classifyPages(pool)
	if err != nil {
		return nil, err
	}

	// Pass 2: root candidates are valid nodes no internal node points to.
	childRefs := make(map[storage.PageID]int)
	for _, pi := range info {
		if pi.kind == kindInternal {
			for _, c := range pi.children {
				childRefs[c]++
			}
		}
	}
	var candidates []storage.PageID
	for _, id := range pool.Device().LivePageIDs() { // LivePageIDs is sorted: stable order
		if pi := info[id]; pi.kind != 0 && childRefs[id] == 0 {
			candidates = append(candidates, id)
		}
	}

	// Pass 3: a candidate must validate as a complete tree.
	var adopted storage.PageID
	var adoptedWalk *walkResult
	for _, cand := range candidates {
		w, err := validateTree(cand, info, cfg.Versions == 0)
		if err != nil {
			continue
		}
		if adoptedWalk != nil {
			return nil, fmt.Errorf("btree: recovery found rival roots %d and %d — image is ambiguous", adopted, cand)
		}
		adopted, adoptedWalk = cand, w
	}
	if adoptedWalk == nil {
		return nil, fmt.Errorf("btree: recovery found no coherent tree among %d live pages (%d root candidates)", len(info), len(candidates))
	}
	return t.adopt(adopted, adoptedWalk, nil)
}

// RecoverAt rebuilds a tree handle from the device image under pool, pinned
// to a known root — the form of recovery a write-ahead log checkpoint
// enables. Where Recover must search for the one coherent tree (and fail on
// rival candidates), RecoverAt validates exactly the tree the checkpoint
// record named; stale roots of earlier checkpoints still on the device are
// not ambiguity, just garbage. Live pages outside the validated tree are
// freed unless keep reports them as owned by someone else (the log's own
// pages); pass keep == nil to free every orphan.
func RecoverAt(pool *storage.BufferPool, cfg Config, root storage.PageID, keep func(storage.PageID) bool) (*Tree, error) {
	t := &Tree{pool: pool, cfg: cfg}
	if err := t.applyConfig(); err != nil {
		return nil, err
	}
	info, err := classifyPages(pool)
	if err != nil {
		return nil, err
	}
	w, err := validateTree(root, info, cfg.Versions == 0)
	if err != nil {
		return nil, fmt.Errorf("btree: recovery at checkpoint root %d: %w", root, err)
	}
	return t.adopt(root, w, keep)
}

// adopt, where both recoveries end, makes the validated tree at root the
// handle's state and frees every live page outside it that keep (nil: none)
// does not claim. Under cfg.Versions the image is seeded as a barrier version
// (epoch 1; writing resumes at 2), so the first post-recovery
// CheckpointBarrier cannot reclaim pages the checkpoint on the device names.
func (t *Tree) adopt(root storage.PageID, w *walkResult, keep func(storage.PageID) bool) (*Tree, error) {
	t.root = root
	t.height = w.depth
	t.count = w.records
	t.stats.LeafPages = w.leaves
	t.stats.InternalPages = w.internals
	if t.initMVCC(); t.mvccOn() {
		t.vs.Publish(t.state(), nil)
	}
	if err := t.pool.FreeExcept(func(id storage.PageID) bool { return w.reached[id] || keep != nil && keep(id) }); err != nil {
		return nil, fmt.Errorf("btree: recovery GC: %w", err)
	}
	return t, nil
}

// classifyPages reads every live page and classifies it as a leaf, an
// internal node, or garbage (kind 0) — recovery pass 1, shared by Recover
// and RecoverAt. Pages holding foreign data (log pages, zeroed allocations)
// classify as garbage, never as an error.
func classifyPages(pool *storage.BufferPool) (map[storage.PageID]*pageInfo, error) {
	dev := pool.Device()
	page := dev.PageSize()
	physLeaf := (page - headerSize) / leafEntrySize
	physInt := (page - headerSize) / intEntrySize
	info := make(map[storage.PageID]*pageInfo)
	for _, id := range dev.LivePageIDs() {
		f, err := pool.Fetch(id)
		if err != nil {
			return nil, fmt.Errorf("btree: recovery read of page %d: %w", id, err)
		}
		n := node{f.Data()}
		pi := &pageInfo{kind: n.kind(), count: n.count(), link: n.link()}
		switch pi.kind {
		case kindLeaf:
			if pi.count > physLeaf || !leafOrdered(n) {
				pi.kind = 0 // structurally invalid: treat as garbage
			} else if pi.count > 0 {
				pi.firstKey = n.leafKey(0)
				pi.lastKey = n.leafKey(pi.count - 1)
			}
		case kindInternal:
			if pi.count < 1 || pi.count > physInt || !intOrdered(n) {
				pi.kind = 0
			} else {
				pi.children = append(pi.children, pi.link)
				for i := 0; i < pi.count; i++ {
					pi.children = append(pi.children, n.intChild(i))
					pi.seps = append(pi.seps, n.intKey(i))
				}
				pi.firstKey = n.intKey(0)
				pi.lastKey = n.intKey(pi.count - 1)
			}
		default:
			pi.kind = 0 // zeroed allocation or foreign data
		}
		pool.Release(f)
		info[id] = pi
	}
	return info, nil
}

func leafOrdered(n node) bool {
	for i := 1; i < n.count(); i++ {
		if n.leafKey(i-1) >= n.leafKey(i) {
			return false
		}
	}
	return true
}

func intOrdered(n node) bool {
	for i := 1; i < n.count(); i++ {
		if n.intKey(i-1) >= n.intKey(i) {
			return false
		}
	}
	return true
}

// walkResult summarizes one validated candidate tree.
type walkResult struct {
	depth     int
	records   int
	leaves    uint64
	internals uint64
	reached   map[storage.PageID]bool
	chain     []storage.PageID // leaves in left-to-right key order
}

// validateTree walks the subtree rooted at root, checking every structural
// invariant of the on-page format, and errors on the first inconsistency.
// The leaf-chain check is optional: under MVCC copy-on-write the chain is
// stale by design — copying a leaf re-points its parent but not its left
// sibling (that would cascade a copy of the whole chain), and every MVCC read
// path descends through separators instead. Recovering a versioned image
// therefore skips the chain; everything else (kinds, counts, key order,
// separator bounds, uniform depth, acyclicity) still holds.
func validateTree(root storage.PageID, info map[storage.PageID]*pageInfo, checkChain bool) (*walkResult, error) {
	w := &walkResult{reached: make(map[storage.PageID]bool)}
	depth, err := w.walk(root, info, nil, nil)
	if err != nil {
		return nil, err
	}
	w.depth = depth
	if !checkChain {
		return w, nil
	}
	// The leaves, gathered in key order, must form exactly the chain their
	// link pointers describe.
	for i, id := range w.chain {
		want := storage.InvalidPage
		if i+1 < len(w.chain) {
			want = w.chain[i+1]
		}
		if info[id].link != want {
			return nil, fmt.Errorf("btree: leaf %d links to %d, key order says %d", id, info[id].link, want)
		}
	}
	return w, nil
}

// walk validates the subtree at id against exclusive key bounds lo/hi (nil =
// unbounded) and returns its depth.
func (w *walkResult) walk(id storage.PageID, info map[storage.PageID]*pageInfo, lo, hi *core.Key) (int, error) {
	pi, ok := info[id]
	if !ok || pi.kind == 0 {
		return 0, fmt.Errorf("btree: reference to missing or invalid page %d", id)
	}
	if w.reached[id] {
		return 0, fmt.Errorf("btree: page %d reached twice (cycle or shared child)", id)
	}
	w.reached[id] = true
	if pi.count > 0 {
		if lo != nil && pi.firstKey < *lo {
			return 0, fmt.Errorf("btree: page %d key %d below separator bound %d", id, pi.firstKey, *lo)
		}
		if hi != nil && pi.lastKey >= *hi {
			return 0, fmt.Errorf("btree: page %d key %d beyond separator bound %d", id, pi.lastKey, *hi)
		}
	}
	if pi.kind == kindLeaf {
		w.leaves++
		w.records += pi.count
		w.chain = append(w.chain, id)
		return 1, nil
	}
	w.internals++
	// Children: leftmost child is bounded above by the first separator; the
	// child of entry i covers [key_i, key_{i+1}).
	depth := 0
	for i, c := range pi.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &pi.seps[i-1]
		}
		if i < len(pi.seps) {
			chi = &pi.seps[i]
		}
		d, err := w.walk(c, info, clo, chi)
		if err != nil {
			return 0, err
		}
		if depth == 0 {
			depth = d
		} else if d != depth {
			return 0, fmt.Errorf("btree: page %d has children at depths %d and %d", id, depth, d)
		}
	}
	return depth + 1, nil
}
