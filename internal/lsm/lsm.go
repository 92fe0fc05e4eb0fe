// Package lsm implements a log-structured merge tree (O'Neil et al., Acta
// Informatica 1996), the canonical write-optimized differential structure at
// the left corner of Figure 1: updates are absorbed in a memtable and
// consolidated into sorted runs by merging, so one logical write costs far
// less than an in-place page update — at the price of reads that must
// consult multiple runs and of space held by not-yet-merged duplicates.
//
// The tree is the paper's Section-5 showcase of tunability:
//
//   - the size ratio T moves it between write-optimized (large T, tiering)
//     and read-optimized (small T, leveling) — "changing the number of merge
//     trees dynamically, the depth of the merge hierarchy and the frequency
//     of merging";
//   - per-run Bloom filters and fence pointers are "iterative logs enhanced
//     by probabilistic data structures that allow for more efficient reads
//     … at the expense of additional space".
//
// Semantics: the LSM performs *blind* writes, its defining property.
// Insert never returns ErrKeyExists (a uniqueness check would cost a read
// and forfeit the structure's advantage); Update and Delete return true
// unconditionally and apply to whatever version exists. Len relies on the
// caller inserting fresh keys and deleting live ones, as the workload
// generator guarantees.
package lsm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/lsm/plan"
	"repro/internal/rum"
	"repro/internal/skiplist"
	"repro/internal/storage"
)

// Tombstone is the reserved value marking a deleted key inside runs and the
// memtable. User values must not equal Tombstone.
const Tombstone = ^core.Value(0)

// Run page layout: bytes 0:4 record count, records of 16 bytes from byte 8.
const (
	pageHeader = 8
	fenceSize  = 12 // first key (8) + page index (4), accounted per probe
)

// Config tunes the tree.
type Config struct {
	// MemtableRecords is the flush threshold (default 1024).
	MemtableRecords int
	// SizeRatio is T, the capacity ratio between adjacent levels (default 10).
	SizeRatio int
	// Tiering selects tiering compaction (up to T runs per level) instead of
	// the default leveling (one run per level).
	Tiering bool
	// BloomBitsPerKey sizes the per-run Bloom filters; 0 disables them.
	BloomBitsPerKey float64
	// Manifest enables crash recovery (the faults.DurableToFlush
	// contract): every fully-successful Flush checkpoints the run
	// directory to checksummed manifest pages on the device, Recover
	// rebuilds the tree from the newest complete checkpoint, and pages
	// freed by compaction are quarantined until the next checkpoint so a
	// committed manifest never references reused pages. Off by default:
	// the checkpoint writes are extra device traffic the paper's Table-1
	// accounting does not include (see manifest.go).
	Manifest bool
	// Versions enables MVCC snapshot reads when > 0 (see mvcc.go): Publish
	// freezes the memtable contents plus the immutable run list as an
	// epoch-stamped version, retaining up to Versions of them for lock-free
	// concurrent readers; run pages freed by compaction are held back until
	// no retained version references them. Combining Versions with Manifest
	// is unsupported — epoch reclamation frees pages the committed manifest
	// may still reference, voiding the recovery contract — and New (hence
	// Recover) panics on the pair.
	Versions int
}

func (c *Config) defaults() {
	if c.MemtableRecords <= 0 {
		c.MemtableRecords = 1024
	}
	if c.SizeRatio < 2 {
		c.SizeRatio = 10
	}
}

// Stats counts structural events.
type Stats struct {
	Flushes     uint64
	Compactions uint64
	RunsBuilt   uint64
	// ManifestWrites counts committed manifest checkpoints (Config.Manifest).
	ManifestWrites uint64
}

// run is one immutable sorted run stored across device pages.
type run struct {
	pages       []storage.PageID
	fences      []core.Key // first key of each page
	first, last core.Key
	count       int
	filter      *bloom.Filter
}

// Tree is the LSM tree. Not safe for concurrent use.
type Tree struct {
	pool   *storage.BufferPool
	cfg    Config
	mem    *skiplist.List
	levels [][]*run // levels[i]: runs, newest last
	count  int
	stats  Stats
	meter  *rum.Meter

	// Manifest state (Config.Manifest; see manifest.go).
	gen         uint64           // generation of the committed manifest
	manifest    []storage.PageID // pages of the committed manifest chain
	pendingFree []storage.PageID // run pages quarantined until next commit

	// MVCC state (nil when cfg.Versions == 0; see mvcc.go): epoch, published
	// versions, compacted-away pages awaiting reclamation.
	vs *storage.VersionSet[state]

	batch batchScratch // GetBatch's, so that a call allocates nothing
}

// batchScratch is GetBatch's state within one run: open holds the indexes of
// the keys no run has settled yet; hits the probes of those whose page in the
// run is resident, waits the probes of the others, and wave the waits' pages,
// in the same order.
type batchScratch struct {
	open        []int
	hits, waits []probe
	wave        []storage.PageID
}

// probe is one key's search of its page in a run: the key's index, the page,
// the image Peek lent (nil if the page was not resident) and what the
// lock-step search found there.
type probe struct {
	i   int
	pid storage.PageID
	img []byte
	v   core.Value
	st  searchStatus
}

// New creates an empty tree on pool. It panics on Manifest + Versions (see
// Config.Versions), as internal/methods does for WAL + Versions.
func New(pool *storage.BufferPool, cfg Config) *Tree {
	cfg.defaults()
	if cfg.Manifest && cfg.Versions > 0 {
		panic("lsm: Config.Manifest and Config.Versions are mutually exclusive")
	}
	meter := pool.Device().Meter()
	t := &Tree{
		pool:  pool,
		cfg:   cfg,
		mem:   newMemtable(meter),
		meter: meter,
	}
	if cfg.Versions > 0 {
		t.vs = storage.NewVersionSet[state](cfg.Versions, func(pid storage.PageID) {
			_ = t.pool.FreePage(pid) // run pages are never pinned between calls; a failed free could only leak
		})
	}
	return t
}

// Name identifies the tree and its shape.
func (t *Tree) Name() string {
	mode := "level"
	if t.cfg.Tiering {
		mode = "tier"
	}
	return fmt.Sprintf("lsm(T=%d,%s,bloom=%g)", t.cfg.SizeRatio, mode, t.cfg.BloomBitsPerKey)
}

// Len returns the live record estimate (see the package comment on blind
// writes).
func (t *Tree) Len() int { return t.count }

// Stats returns structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Pool returns the buffer pool the tree runs on.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Meter returns the shared RUM accounting.
func (t *Tree) Meter() *rum.Meter { return t.meter }

// Depth returns the number of materialized levels.
func (t *Tree) Depth() int { return len(t.levels) }

// Runs returns the total number of on-device runs.
func (t *Tree) Runs() int { return countRuns(t.levels) }

func countRuns(levels [][]*run) int {
	n := 0
	for _, lv := range levels {
		n += len(lv)
	}
	return n
}

// Size reports live records as base bytes; run-page slack, shadowed
// duplicates, tombstones, fences, filters, and the memtable towers as
// auxiliary bytes.
func (t *Tree) Size() rum.SizeInfo {
	pageBytes := uint64(0)
	auxMeta := uint64(0)
	for _, lv := range t.levels {
		for _, r := range lv {
			pageBytes += uint64(len(r.pages)) * uint64(t.pool.Device().PageSize())
			auxMeta += uint64(len(r.fences)) * fenceSize
			if r.filter != nil {
				auxMeta += r.filter.SizeBytes()
			}
		}
	}
	memSize := t.mem.Size()
	total := pageBytes + auxMeta + memSize.BaseBytes + memSize.AuxBytes
	total += t.retainedBytes()
	base := uint64(t.count) * core.RecordSize
	if base > total {
		base = total
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: total - base}
}

// Flush drains the memtable into a run and writes all dirty pages. With
// Config.Manifest, a flush that leaves zero dirty frames additionally
// commits a manifest checkpoint — the durability point the recovery
// contract is defined against; a flush cut short by device faults leaves
// the previous checkpoint authoritative.
func (t *Tree) Flush() {
	t.flushMemtable()
	t.pool.FlushAll()
	if t.cfg.Manifest && t.pool.DirtyCount() == 0 {
		_ = t.writeManifest()
	}
}

// Insert blind-writes the record into the memtable.
func (t *Tree) Insert(k core.Key, v core.Value) error {
	if v == Tombstone {
		return fmt.Errorf("lsm: value %d is the reserved tombstone", v)
	}
	t.put(k, v)
	t.count++
	return nil
}

// Update blind-writes the new version; it returns true unconditionally (see
// the package comment).
func (t *Tree) Update(k core.Key, v core.Value) bool {
	if v == Tombstone {
		return false
	}
	t.put(k, v)
	return true
}

// Delete blind-writes a tombstone; it returns true unconditionally (see the
// package comment).
func (t *Tree) Delete(k core.Key) bool {
	t.put(k, Tombstone)
	if t.count > 0 {
		t.count--
	}
	return true
}

func (t *Tree) put(k core.Key, v core.Value) {
	t.mem.Put(k, v)
	if t.mem.Len() >= t.cfg.MemtableRecords {
		t.flushMemtable()
	}
}

// Get consults the memtable, then runs from newest to oldest, stopping at
// the first version found. Bloom filters and fences prune runs before any
// page is read.
func (t *Tree) Get(k core.Key) (core.Value, bool) {
	if v, ok := t.mem.Get(k); ok {
		if v == Tombstone {
			return 0, false
		}
		return v, true
	}
	for _, lv := range t.levels {
		for i := len(lv) - 1; i >= 0; i-- { // newest run last
			r := lv[i]
			v, status := t.searchRun(r, k)
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

// GetBatch is len(keys) Gets (core.BatchGetter): the same values and the
// same meter charges. On a pool that does not batch I/O (IOBatch 1, the
// flat media's default) it is that loop. On a batching pool it checks
// the memtable for every key, then walks the runs newest first, as Get does,
// with the keys no newer run has settled. In each run it plans, then
// replays. The plan locates every such key's page once, as Get would
// (fences, filter: the same charges), and searches the resident pages'
// images, peeked, in lock-step (core.SearchGroup). The replay makes Get's
// Fetch and Release of each resident page in key order and settles the key
// from the plan; then the pages of the rest go to the pool as one Readahead
// wave, whose images are peeked and searched in lock-step before their
// Fetches and Releases are replayed in turn. Resident pages first: their
// Fetches make them the most recently used, so the wave's evictions pass
// them by (DESIGN §9).
func (t *Tree) GetBatch(keys []core.Key, vals []core.Value, oks []bool) {
	if len(keys) < 2 || !t.pool.BatchIO() {
		for i, k := range keys {
			vals[i], oks[i] = t.Get(k)
		}
		return
	}
	b := &t.batch
	b.open = b.open[:0]
	for i, k := range keys {
		vals[i], oks[i] = 0, false
		if v, ok := t.mem.Get(k); ok {
			if v != Tombstone {
				vals[i], oks[i] = v, true
			}
			continue
		}
		b.open = append(b.open, i)
	}
	for _, lv := range t.levels {
		for i := len(lv) - 1; i >= 0 && len(b.open) > 0; i-- { // newest run last
			t.searchRunBatch(lv[i], keys, vals, oks)
		}
	}
}

// searchRunBatch is GetBatch's step over one run: it settles the open keys
// the run holds a version of and leaves the others open, in their order.
func (t *Tree) searchRunBatch(r *run, keys []core.Key, vals []core.Value, oks []bool) {
	b := &t.batch
	// The plan calls the pool for nothing but Peek, so every image it lends
	// is still good when searchProbes reads it. open is filtered in place: it
	// never grows past the keys already read. A resident key stays in it
	// until the replay settles it.
	open, hits, waits, wave := b.open[:0], b.hits[:0], b.waits[:0], b.wave[:0]
	for _, i := range b.open {
		pi, ok := r.locate(keys[i], t.meter)
		if !ok {
			open = append(open, i)
			continue
		}
		pid := r.pages[pi]
		if img := t.pool.Peek(pid); img != nil {
			open = append(open, i)
			hits = append(hits, probe{i: i, pid: pid, img: img})
		} else {
			waits = append(waits, probe{i: i, pid: pid})
			wave = append(wave, pid)
		}
	}
	searchProbes(hits, keys)
	// The replay walks open in order; hits, in the same order, mark which of
	// its keys were resident.
	n, h := 0, 0
	for _, i := range open {
		if h < len(hits) && hits[h].i == i {
			h++
			if t.settle(&hits[h-1], keys, vals, oks) {
				continue
			}
		}
		open[n], n = i, n+1
	}
	open = open[:n]
	if len(wave) > 0 {
		// Readahead reads at most half the pool: a page it left out keeps a
		// nil image and is read by its own Fetch in the replay.
		t.pool.Readahead(wave)
		for j := range waits {
			waits[j].img = t.pool.Peek(waits[j].pid)
		}
		searchProbes(waits, keys)
		for j := range waits {
			if !t.settle(&waits[j], keys, vals, oks) {
				open = append(open, waits[j].i)
			}
		}
	}
	b.open, b.hits, b.waits, b.wave = open, hits, waits, wave
}

// searchProbes searches each probe's image for its key, core.GroupWidth
// probes at a time in lock-step; a probe without an image finds nothing.
func searchProbes(ps []probe, keys []core.Key) {
	if len(ps) == 0 {
		return // before the lanes' arrays, which cost their clearing
	}
	var (
		imgs     [core.GroupWidth][]byte
		ks       [core.GroupWidth]core.Key
		pos, cnt [core.GroupWidth]int
	)
	for len(ps) > 0 {
		w := min(len(ps), core.GroupWidth)
		for j := range ps[:w] {
			imgs[j], ks[j], cnt[j] = ps[j].img, keys[ps[j].i], 0
			if imgs[j] != nil {
				cnt[j] = pageCount(imgs[j])
			}
			pos[j] = cnt[j]
		}
		core.SearchGroup(&imgs, ks[:w], &pos, pageHeader, core.RecordSize, false)
		for j := range ps[:w] {
			ps[j].v, ps[j].st = match(imgs[j], cnt[j], pos[j], ks[j])
		}
		ps = ps[w:]
	}
}

// settle makes the pool calls Get makes for p's key in the run — the Fetch
// and Release of its page — and settles the key from the plan's search,
// reporting whether the run held a version of it. A page the plan has no
// image of is fetched and searched as Get does; a failed Fetch leaves the
// key open, as it does Get.
func (t *Tree) settle(p *probe, keys []core.Key, vals []core.Value, oks []bool) bool {
	v, st := p.v, p.st
	if p.img == nil {
		v, st = t.searchRunPage(p.pid, keys[p.i])
	} else if f, err := t.pool.Fetch(p.pid); err != nil {
		st = notFound
	} else {
		t.pool.Release(f)
	}
	if st == foundValue {
		vals[p.i], oks[p.i] = v, true
	}
	return st != notFound
}

type searchStatus int

const (
	notFound searchStatus = iota
	foundValue
	foundTombstone
)

// The point-read kernel over one run, shared by the live tree and its
// snapshots — they differ only in where the page's bytes come from (the
// pool, or a PageView) and in whose meter pays.

// locate prunes the run with its min/max fences and Bloom filter, then
// binary-searches the fence pointers for the one page that can hold k. It
// reports false when the run cannot contain k.
func (r *run) locate(k core.Key, m *rum.Meter) (int, bool) {
	if r.count == 0 || k < r.first || k > r.last {
		m.CountRead(rum.Aux, 16) // min/max fence check
		return 0, false
	}
	if r.filter != nil && !r.filter.MayContainMetered(k, m) {
		return 0, false
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
	return pi, true
}

// pageCount is the number of records on the run page in data.
func pageCount(data []byte) int { return int(binary.LittleEndian.Uint32(data[0:4])) }

// searchPage binary-searches one run page for k.
func searchPage(data []byte, k core.Key) (core.Value, searchStatus) {
	n := pageCount(data)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(data[pageHeader+mid*core.RecordSize:]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return match(data, n, lo, k)
}

// match is what a run page of n records says of k, given lo, the position of
// its first record whose key is >= k.
func match(data []byte, n, lo int, k core.Key) (core.Value, searchStatus) {
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

func (t *Tree) searchRun(r *run, k core.Key) (core.Value, searchStatus) {
	pi, ok := r.locate(k, t.meter)
	if !ok {
		return 0, notFound
	}
	return t.searchRunPage(r.pages[pi], k)
}

// searchRunPage fetches run page pid and searches it for k; a page that cannot
// be read holds nothing, and the search goes on in the next run.
func (t *Tree) searchRunPage(pid storage.PageID, k core.Key) (core.Value, searchStatus) {
	f, err := t.pool.Fetch(pid)
	if err != nil {
		return 0, notFound
	}
	defer t.pool.Release(f)
	return searchPage(f.Data(), k)
}

// perPage returns records per run page.
func (t *Tree) perPage() int {
	return (t.pool.Device().PageSize() - pageHeader) / core.RecordSize
}

// buildRun writes the sorted records into fresh pages and returns the run.
func (t *Tree) buildRun(recs []core.Record) (*run, error) {
	r := &run{count: len(recs)}
	if len(recs) == 0 {
		return r, nil
	}
	r.first = recs[0].Key
	r.last = recs[len(recs)-1].Key
	if t.cfg.BloomBitsPerKey > 0 {
		r.filter = bloom.NewFilter(len(recs), t.cfg.BloomBitsPerKey, t.meter)
	}
	per := t.perPage()
	for start := 0; start < len(recs); start += per {
		end := start + per
		if end > len(recs) {
			end = len(recs)
		}
		// The page is written whole: the header, the records, and zeros
		// after the last record.
		f, err := t.pool.NewPageForOverwrite(rum.Base)
		if err != nil {
			return nil, err
		}
		f.MarkDirty()
		data := f.Data()
		binary.LittleEndian.PutUint64(data[0:pageHeader], uint64(end-start))
		for j, rec := range recs[start:end] {
			core.EncodeRecord(data[pageHeader+j*core.RecordSize:], rec)
		}
		clear(data[pageHeader+(end-start)*core.RecordSize:])
		r.pages = append(r.pages, f.ID())
		r.fences = append(r.fences, recs[start].Key)
		t.pool.Release(f)
	}
	if r.filter != nil {
		for _, rec := range recs {
			r.filter.Add(rec.Key)
		}
	}
	t.stats.RunsBuilt++
	return r, nil
}

// readRun appends every record of a run to recs in order, charging page
// reads. The run streams through the pool's readahead window: each
// IOBatch-sized chunk of run pages is offered to Readahead, so on a batching
// pool sequential run scans (compaction inputs, range merges) pay the
// amortized batch cost of one deep submission instead of depth-1 reads. A
// pool that does not batch reads nothing ahead, and the loop below is
// exactly the per-page path.
func (t *Tree) readRun(recs []core.Record, r *run) ([]core.Record, error) {
	ra, next := t.pool.IOBatch(), 0
	for i, pid := range r.pages {
		if i == next {
			end := min(i+ra, len(r.pages))
			// Advance the window by what the pool actually covered (it clamps
			// a prefetch to half its capacity, and reads nothing ahead unless
			// it batches); already-cached pages are skipped by Readahead, so
			// a short answer just re-arms sooner.
			next = max(i+t.pool.Readahead(r.pages[i:end]), i+1)
		}
		f, err := t.pool.Fetch(pid)
		if err != nil {
			return nil, err
		}
		data := f.Data()
		n := pageCount(data)
		for j := 0; j < n; j++ {
			recs = append(recs, core.DecodeRecord(data[pageHeader+j*core.RecordSize:]))
		}
		t.pool.Release(f)
	}
	return recs, nil
}

// freeRun releases a run's pages. Under Config.Versions the pages are
// retired to the version set instead: a published version's run list may
// still reference them, so they are only freed once no live version can.
// Under Config.Manifest they are quarantined until the next checkpoint
// commits (writeManifest).
func (t *Tree) freeRun(r *run) {
	if t.mvccOn() {
		for _, pid := range r.pages {
			t.vs.Retire(pid)
		}
		return
	}
	if t.cfg.Manifest {
		t.pendingFree = append(t.pendingFree, r.pages...)
		return
	}
	for _, pid := range r.pages {
		_ = t.pool.FreePage(pid)
	}
}

// mergeSorted is the tree's one merge kernel: a k-way merge of sources
// ordered oldest to newest, each strictly ascending by key (asserted under
// -tags racecheck), appended to dst[:0] — a fresh buffer when dst cannot hold
// every source record, so a scan passes nil. On equal keys the newest source
// wins and the shadowed versions are dropped; when dropTombs is true (a step
// the planner cleared for it, or a scan's answer) tombstones are discarded
// too. Every merge here has at most T+1 sources, so the smallest head is
// found by a linear scan rather than a heap, and the winner's records below
// every other source's head go out in one stretch before the next scan.
//
// A compaction merges in place: sources[0] is the tail of dst's backing
// array, cap(dst) records long, and the merge writes forward from its head.
// Each record is read before its slot can be written: after w writes at
// least w records have been consumed, the other sources hold at most
// cap(dst) - len(sources[0]) of them, so the write index never passes
// sources[0]'s next unread record.
func mergeSorted(dst []core.Record, sources [][]core.Record, dropTombs bool) []core.Record {
	assertAscending(sources)
	total := 0
	for _, src := range sources {
		total += len(src)
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]core.Record, 0, total)
	}
	heads := make([]int, len(sources))
	for {
		// One pass finds the smallest head key and, among the sources that
		// carry it, the newest: an older head that ties is shadowed, so it is
		// stepped over on the spot (its key stays at the newer source's head).
		// It also finds bound, the smallest head key of every other source.
		best, bound := -1, ^core.Key(0)
		var bestKey core.Key
		for i, src := range sources {
			if heads[i] == len(src) {
				continue
			}
			switch k := src[heads[i]].Key; {
			case best < 0:
				best, bestKey = i, k
			case k < bestKey:
				bound = min(bound, bestKey)
				best, bestKey = i, k
			case k == bestKey:
				if heads[best]++; heads[best] < len(sources[best]) {
					bound = min(bound, sources[best][heads[best]].Key)
				}
				best = i
			default:
				bound = min(bound, k)
			}
		}
		if best < 0 {
			return out
		}
		// The winner's records below bound precede every other source's
		// head, so they go out in one stretch without another scan.
		src, h := sources[best], heads[best]
		for {
			rec := src[h]
			h++
			if !dropTombs || rec.Value != Tombstone {
				out = append(out, rec)
			}
			if h == len(src) || src[h].Key >= bound {
				break
			}
		}
		heads[best] = h
	}
}

// flushMemtable turns the memtable into a level-0 run and triggers
// compaction as capacities overflow.
func (t *Tree) flushMemtable() {
	if t.mem.Len() == 0 {
		return
	}
	recs := make([]core.Record, 0, t.mem.Len())
	t.mem.Ascend(0, func(k core.Key, v core.Value) bool {
		recs = append(recs, core.Record{Key: k, Value: v})
		return true
	})
	// Draining the memtable reads it once.
	t.meter.CountRead(rum.Base, len(recs)*core.RecordSize)
	t.mem.Reset()
	// A run that cannot be built (a device fault under the pool) drops the
	// drained records; Flush then leaves dirty frames behind and commits no
	// manifest, which is how the loss surfaces.
	_ = t.addRun(recs)
}

// addRun writes the ascending recs as the newest level-0 run and restores the
// level invariants: the one flush step, shared by the memtable drain and the
// sorted ingest.
func (t *Tree) addRun(recs []core.Record) error {
	r, err := t.buildRun(recs)
	if err != nil {
		return err
	}
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = append(t.levels[0], r)
	t.stats.Flushes++
	t.compact()
	return nil
}

// IngestSorted absorbs a batch the caller has already buffered and sorted —
// strictly ascending by key (asserted under -tags racecheck), deletes as
// records whose value is Tombstone — without a second trip through the
// memtable. The batch is cut into MemtableRecords-sized level-0 runs, each
// followed by the normal compaction step, and a tail shorter than a memtable
// becomes the short run the next Flush would have drained: the run set, page
// images, compaction sequence and Stats are exactly those of Insert/Update/
// Delete calls in the same order followed by Flush, minus the skip-list
// traffic. It does not write dirty pages or commit a manifest; Flush does.
//
// The tree writes blind, so delta is the caller's word for how the batch
// changes the live record count (what Insert and Delete would have tallied
// one by one). The memtable must be empty — interleaving a sorted batch with
// buffered writes would let an older version shadow a newer one — and recs is
// not retained.
func (t *Tree) IngestSorted(recs []core.Record, delta int) error {
	if n := t.mem.Len(); n != 0 {
		return fmt.Errorf("lsm: sorted ingest over a memtable holding %d records", n)
	}
	assertAscending([][]core.Record{recs})
	for len(recs) > 0 {
		n := min(len(recs), t.cfg.MemtableRecords)
		if err := t.addRun(recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	t.count = max(0, t.count+delta)
	return nil
}

// policy is the tree's compaction schedule under its Config.
func (t *Tree) policy() plan.Policy {
	return plan.Policy{Buffer: float64(t.cfg.MemtableRecords), SizeRatio: float64(t.cfg.SizeRatio), Tiering: t.cfg.Tiering}
}

// Level reports level i's run count and record total; with Depth it makes
// the tree a plan.Shape, so the planner reads the run directory in place.
func (t *Tree) Level(i int) (runs int, records float64) {
	for _, r := range t.levels[i] {
		records += float64(r.count)
	}
	return len(t.levels[i]), records
}

// compact restores the level invariants after a flush: one ascending pass,
// each level asked of the planner after the steps above it have been applied.
func (t *Tree) compact() {
	p := t.policy()
	for i := 0; i < len(t.levels); i++ {
		if st, ok := p.Next(i, t); ok {
			t.apply(st)
		}
	}
}

// apply executes one planned merge. The victims are read oldest first — on
// an absorbing step the target level's runs before the source's — merged,
// written as one run, and only then freed and replaced; a device fault on
// the way leaves every run where it was.
func (t *Tree) apply(st plan.Step) {
	if st.Into == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	victims := t.levels[st.From]
	if st.Absorb {
		victims = append(append([]*run(nil), t.levels[st.Into]...), victims...)
	}
	if st.DropTombstones {
		assertNoBystander(t.levels[st.Into:], victims)
	}
	// One buffer sized to every victim holds the merge: the oldest victim —
	// on an absorbing step the target level's run, the largest — is decoded
	// into its tail, the newer ones into a buffer of their own, and the merge
	// writes forward from the head (mergeSorted's in-place case). Both are
	// dropped once the run is built: none outlives the merge.
	total := 0
	for _, r := range victims {
		total += r.count
	}
	merged := make([]core.Record, total)
	gap := total - victims[0].count
	oldest, err := t.readRun(merged[gap:gap:total], victims[0])
	if err != nil {
		return
	}
	newer := make([]core.Record, 0, gap)
	sources := append(make([][]core.Record, 0, len(victims)), oldest)
	for _, r := range victims[1:] {
		from := len(newer)
		if newer, err = t.readRun(newer, r); err != nil {
			return
		}
		sources = append(sources, newer[from:])
	}
	out, err := t.buildRun(mergeSorted(merged, sources, st.DropTombstones))
	if err != nil {
		return
	}
	for _, r := range victims {
		t.freeRun(r)
	}
	t.levels[st.From] = nil
	if st.Absorb {
		t.levels[st.Into] = nil
	}
	t.levels[st.Into] = append(t.levels[st.Into], out)
	t.stats.Compactions++
}

// RangeScan merges the memtable and every overlapping run, emitting live
// records in ascending key order. Every source is materialized before the
// merge, in the fixed order deepest level first, then the memtable, so the
// pages a scan fetches — and the order it fetches them in — do not depend on
// how the merge consumes them or on when emit stops.
func (t *Tree) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	sources := make([][]core.Record, 0, t.Runs()+1)
	// Oldest to newest so newer versions win the merge.
	for i := len(t.levels) - 1; i >= 0; i-- {
		for _, r := range t.levels[i] {
			sources = append(sources, t.scanRun(r, lo, hi))
		}
	}
	var mem []core.Record
	t.mem.Ascend(lo, func(k core.Key, v core.Value) bool {
		if k > hi {
			return false
		}
		mem = append(mem, core.Record{Key: k, Value: v})
		return true
	})
	t.meter.CountRead(rum.Base, len(mem)*core.RecordSize)
	return emitMerged(append(sources, mem), emit)
}

// emitMerged merges scan sources (oldest first) and emits the live records
// until emit declines, returning how many it was offered.
func emitMerged(sources [][]core.Record, emit func(core.Key, core.Value) bool) int {
	emitted := 0
	for _, rec := range mergeSorted(nil, sources, true) {
		emitted++
		if !emit(rec.Key, rec.Value) {
			break
		}
	}
	return emitted
}

// overlapPages returns the pages of r that can hold keys in [lo, hi], in run
// order — empty when the run's key range misses the interval — charging the
// flat min/max-or-fence probe to m. It is the shared first step of a range
// read; the live tree and its snapshots differ only in how they then read
// the pages.
func (r *run) overlapPages(lo, hi core.Key, m *rum.Meter) []storage.PageID {
	m.CountRead(rum.Aux, 16)
	if r.count == 0 || hi < r.first || lo > r.last {
		return nil
	}
	start := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > lo }) - 1
	if start < 0 {
		start = 0
	}
	end := start + 1
	for end < len(r.pages) && r.fences[end] <= hi {
		end++
	}
	return r.pages[start:end]
}

// appendInRange decodes the run page in data and appends its records with
// keys in [lo, hi] to dst.
func appendInRange(dst []core.Record, data []byte, lo, hi core.Key) []core.Record {
	n := pageCount(data)
	for j := 0; j < n; j++ {
		rec := core.DecodeRecord(data[pageHeader+j*core.RecordSize:])
		if rec.Key >= lo && rec.Key <= hi {
			dst = append(dst, rec)
		}
	}
	return dst
}

// scanRun reads the pages of r overlapping [lo, hi] in run order and returns
// their in-range records, ascending.
func (t *Tree) scanRun(r *run, lo, hi core.Key) []core.Record {
	var recs []core.Record
	for _, pid := range r.overlapPages(lo, hi, t.meter) {
		f, err := t.pool.Fetch(pid)
		if err != nil {
			return recs
		}
		recs = appendInRange(recs, f.Data(), lo, hi)
		t.pool.Release(f)
	}
	return recs
}

// BulkLoad replaces the contents with the key-sorted recs as a single
// bottom-level run.
func (t *Tree) BulkLoad(recs []core.Record) error {
	t.mem.Reset()
	for _, lv := range t.levels {
		for _, r := range lv {
			t.freeRun(r)
		}
	}
	t.levels = nil
	t.count = 0
	lvl := t.policy().LoadLevel(float64(len(recs)))
	r, err := t.buildRun(recs)
	if err != nil {
		return err
	}
	t.levels = make([][]*run, lvl+1)
	t.levels[lvl] = []*run{r}
	t.count = len(recs)
	return nil
}
