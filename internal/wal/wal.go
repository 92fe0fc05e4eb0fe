// Package wal adds a write-ahead log — and with it the DurableToCommit
// contract — on top of the btree and lsm access methods, paying the paper's
// update-overhead (UO) tax explicitly: every acknowledged mutation is first
// framed into an append-only log on the shared storage.Device, and a group
// commit makes a whole batch of mutations durable with a single simulated
// sync (one log append of freshly allocated pages).
//
// # Structure
//
// Logged wraps an inner access method (the "structure") with two volatile
// layers and one durable one:
//
//   - pending: mutations appended to the log buffer but not yet committed.
//     A group commit (Commit, or automatically every CommitBatch records)
//     encodes them into CRC32-framed log pages and writes those pages to
//     the device — the records are durable from that point on. The page
//     images are built in frames the log owns and reuses (an append swaps
//     each frame for the fresh page's buffer, and a frame's tail is zeroed
//     past its payload), so a steady-state commit allocates nothing.
//   - overlay: every mutation since the last checkpoint, applied to an
//     in-memory map that shadows the inner structure on reads. The inner
//     structure itself is NOT touched between checkpoints, so the page
//     image its last checkpoint left on the device stays intact. The
//     overlay is the structure's write buffer — under the LSM it is the
//     memtable, and the tree's own skip list stays empty. Each entry carries
//     a base bit: whether the structure holds a live version of the key,
//     learned from the one probe the key cost when it first entered the
//     overlay (or when recovery replayed it) and true until the next
//     checkpoint because nothing touches the structure in between.
//   - the inner structure: absorbs the overlay only at a checkpoint
//     (Flush/Checkpoint), as a single sorted hand-off: one batch of
//     {key, value, tombstone, base} in ascending key order, from which the
//     structure chooses insert, update, delete or skip per key without
//     probing again — the B+-tree with one descent per key, the LSM by
//     cutting the batch straight into level-0 runs (lsm.IngestSorted). The
//     checkpoint then makes the structure durable through its own barrier —
//     btree.CheckpointBarrier for the B+-tree, the manifest commit for the
//     LSM — seals a checkpoint record opening a fresh log segment, and
//     recycles every earlier log page.
//
// # Log format
//
// Each log page is one device page, allocated as auxiliary data:
//
//	bytes 0:4    magic "WALP"
//	bytes 4:8    CRC32 (IEEE) of bytes 8 : 28+used
//	bytes 8:16   sequence number (uint64, global, monotonic, starts at 1)
//	bytes 16:24  segment number (uint64, monotonic; the recycling unit)
//	bytes 24:28  used payload bytes (uint32)
//	bytes 28:    payload: records, never split across pages
//
// Records: upsert = kind 1, key, value (17 bytes); delete = kind 2, key
// (9 bytes); checkpoint = kind 3, uint16 blob length, blob — an opaque
// structure-specific anchor (the btree checkpoint root; empty for the LSM,
// whose manifest is self-anchoring). Log pages are append-only: a page,
// once written, is never rewritten, so a torn write can only damage pages
// whose records were never reported committed. Recovery (recover.go) sorts
// the CRC-valid pages by sequence number, adopts the newest checkpoint
// record as the anchor, rebuilds the inner structure at that anchor, and
// replays into the overlay the records of the pages that follow it without
// a gap in their sequence numbers.
//
// # Failure discipline
//
// A failed commit or checkpoint poisons the log: the error is latched,
// every later mutation is refused (Insert and Commit return the error,
// Update and Delete report false), and reads keep serving. This keeps the
// committed records a strict prefix of the append order — retrying a torn
// append onto a new page could otherwise interleave durable and lost
// records. A poisoned log is abandoned, not repaired: recovery from the
// device image is the only way forward, exactly as after a crash.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

const (
	walMagic  = 0x504C4157 // "WALP"
	walHeader = 28

	recUpsert     = 1
	recDelete     = 2
	recCheckpoint = 3

	upsertSize = 1 + core.KeySize + core.ValueSize
	deleteSize = 1 + core.KeySize
)

// Config tunes the log.
type Config struct {
	// CommitBatch is the group-commit knob: the number of appended records
	// that triggers an automatic commit. 1 syncs every mutation (strictest,
	// most expensive); larger batches amortize one log append + sync over
	// the whole group, at the price of a longer un-committed tail. 0
	// defaults to 1. The serving layer additionally commits at the end of
	// every shard mailbox batch, whichever comes first.
	CommitBatch int
	// CheckpointEvery triggers an automatic checkpoint once the overlay
	// holds this many distinct keys; 0 leaves checkpointing to explicit
	// Flush calls. Checkpoints bound both the overlay (memory overhead) and
	// the log length recovery must replay.
	CheckpointEvery int
}

func (c *Config) defaults() {
	if c.CommitBatch <= 0 {
		c.CommitBatch = 1
	}
}

// Stats counts log activity.
type Stats struct {
	// Commits counts group commits; Syncs counts simulated syncs (one per
	// commit and one per checkpoint record) — the denominator of the
	// group-commit amortization story.
	Commits, Syncs uint64
	// Checkpoints counts completed checkpoints (overlay absorbed, inner
	// barrier done, checkpoint record sealed, old segments recycled).
	Checkpoints uint64
	// LogPagesWritten and LogBytesWritten count cumulative appended log
	// traffic (bytes are header + payload, not page slack).
	LogPagesWritten, LogBytesWritten uint64
	// PagesRecycled counts log pages returned to the device after a
	// checkpoint superseded their segment.
	PagesRecycled uint64
	// CheckpointRecords counts overlay entries handed to the inner structure
	// by checkpoints, and CheckpointNanos the wall-clock time checkpoints
	// took (commit, absorb, barrier, checkpoint record, recycle) — the write
	// stall a shard's clients sit out. Two clock reads per checkpoint, none
	// per operation; the only Stats field that is not deterministic.
	CheckpointRecords, CheckpointNanos uint64
	// LiveLogPages and OverlayRecords report the current footprint: log
	// pages not yet recycled, and overlay entries not yet absorbed.
	LiveLogPages, OverlayRecords int
}

// entry is one overlay slot: the newest uncheckpointed version of a key.
// base remembers the answer of the one inner probe the key cost when it first
// entered the overlay — whether the inner structure holds a live version of
// it. The structure is untouched until the next checkpoint, so the bit stays
// true to it and the checkpoint never has to ask again.
type entry struct {
	val  core.Value
	tomb bool
	base bool
}

// change is one overlay entry on its way into the inner structure.
type change struct {
	key core.Key
	entry
}

// logRecord is one data record bound for the log.
type logRecord struct {
	kind byte
	key  core.Key
	val  core.Value
}

// size is the record's encoded length.
func (r logRecord) size() int {
	if r.kind == recUpsert {
		return upsertSize
	}
	return deleteSize
}

// put encodes the record at the start of dst.
func (r logRecord) put(dst []byte) {
	dst[0] = r.kind
	binary.LittleEndian.PutUint64(dst[1:], r.key)
	if r.kind == recUpsert {
		binary.LittleEndian.PutUint64(dst[1+core.KeySize:], r.val)
	}
}

// inner is the structure under the log: a full access method that can look
// keys up in batches (Prefetch), plus the three hooks the checkpoint protocol
// needs.
type inner interface {
	core.AccessMethod
	core.BatchGetter
	// validate rejects values the structure cannot represent (the LSM
	// tombstone) before they are acknowledged into the log.
	validate(v core.Value) error
	// absorb installs a checkpoint's overlay, handed over as one batch in
	// strictly ascending key order. Each change's base bit says whether the
	// structure holds a live version of the key, which decides between
	// insert, update, delete and skip (a tombstone over a key the structure
	// never held) without probing. The batch is the caller's scratch: absorb
	// must not retain it.
	absorb(batch []change) error
	// barrier makes the structure's current state durable on the device and
	// returns the opaque blob the checkpoint record stores to find that
	// state again at recovery.
	barrier() ([]byte, error)
}

// Logged is a write-ahead-logged access method (core.AccessMethod,
// core.Flusher). Not safe for concurrent use — in the serving layer each
// shard owns one instance, which is exactly what makes group commit free:
// the batch is already sitting in the shard's mailbox.
type Logged struct {
	in   inner
	pool *storage.BufferPool
	cfg  Config

	overlay map[core.Key]entry
	pending []logRecord
	count   int // logical record count (estimate under the LSM, like lsm.Len)

	// memo maps each key the last Prefetch looked up to its slot in
	// memoKeys, memoVals and memoOks, the batch lookup's reusable buffers,
	// which hold the structure's answers: probe reads them before asking the
	// structure again. The structure changes only at a checkpoint, which
	// clears the memo.
	memo     map[core.Key]int
	memoKeys []core.Key
	memoVals []core.Value
	memoOks  []bool

	// Reusable scratch, so the steady state allocates nothing: batch is the
	// sorted hand-off of a checkpoint (and the overlay side of a RangeScan),
	// spare the other half of its radix sort; frames are the log page images
	// a commit encodes into — an append hands each to the device and takes
	// the page's previous buffer back in its place, so a frame is free again
	// as soon as the append returns.
	batch  []change
	spare  []change
	frames [][]byte

	seq       uint64 // last page sequence number issued
	seg       uint64 // current segment number
	livePages []storage.PageID
	committed uint64 // data records durably committed, in append order
	corrupt   error  // latched first failure: the log is poisoned

	stats Stats
}

// open wraps a freshly built structure and seals the initial checkpoint so
// recovery always finds an anchor, even before the first explicit Flush.
func open(pool *storage.BufferPool, in inner, cfg Config) (*Logged, error) {
	cfg.defaults()
	if pool.Device().PageSize()-walHeader < upsertSize+2 {
		return nil, fmt.Errorf("wal: page size %d too small for log records", pool.Device().PageSize())
	}
	l := &Logged{
		in:      in,
		pool:    pool,
		cfg:     cfg,
		overlay: make(map[core.Key]entry),
		memo:    make(map[core.Key]int),
		count:   in.Len(),
	}
	if err := l.Checkpoint(); err != nil {
		return nil, err
	}
	return l, nil
}

// Name identifies the wrapper, its structure, and the group-commit batch.
func (l *Logged) Name() string {
	return fmt.Sprintf("wal(%s,b=%d)", l.in.Name(), l.cfg.CommitBatch)
}

// Len returns the number of live records (an estimate when the inner
// structure's own count is one, as the LSM's is).
func (l *Logged) Len() int { return l.count }

// Meter exposes the shared device meter: log appends surface as auxiliary
// write traffic next to the structure's own page writes.
func (l *Logged) Meter() *rum.Meter { return l.in.Meter() }

// Stats reports log activity counters.
func (l *Logged) Stats() Stats {
	s := l.stats
	s.LiveLogPages = len(l.livePages)
	s.OverlayRecords = len(l.overlay)
	return s
}

// Committed returns the number of data records made durable so far, in
// append order: after a crash, the first Committed() acknowledged mutations
// are guaranteed to survive recovery (faults.Committer — the watermark the
// DurableToCommit contract is checked against).
func (l *Logged) Committed() uint64 { return l.committed }

// Size adds the log's footprint to the structure's: live log pages, plus
// the volatile overlay and pending buffer, count as auxiliary bytes — the
// memory-overhead side of the durability tax.
func (l *Logged) Size() rum.SizeInfo {
	s := l.in.Size()
	s.AuxBytes += uint64(len(l.livePages)) * uint64(l.pool.Device().PageSize())
	s.AuxBytes += uint64(len(l.overlay)+len(l.pending)) * core.RecordSize
	return s
}

// probe resolves k through the overlay, then the memo, then the structure.
// base is the bit an overlay entry for k must carry: the one the key's entry
// already has, or — on first touch since the last checkpoint — what the
// structure answered.
func (l *Logged) probe(k core.Key) (v core.Value, found, base bool) {
	if e, ok := l.overlay[k]; ok {
		return e.val, !e.tomb, e.base
	}
	if i, ok := l.memo[k]; ok {
		return l.memoVals[i], l.memoOks[i], l.memoOks[i]
	}
	v, found = l.in.Get(k)
	return v, found, found
}

// Prefetch (core.Prefetcher) asks the structure, in one GetBatch, what the
// coming operations on keys will probe it for: each key once, and none the
// overlay already holds. The answers replace the memo, which probe reads
// before the structure. The results of every later call are what they would
// have been without the hint; each lookup is one a probe would have made,
// only earlier and together with the others, and a key read twice before
// its first write is looked up once. On a pool that does not batch I/O
// (storage.BufferPool.BatchIO) it does nothing: there a batch would read
// what the probes read, one page at a time.
func (l *Logged) Prefetch(keys []core.Key) {
	if !l.pool.BatchIO() {
		return
	}
	clear(l.memo)
	ks := l.memoKeys[:0]
	for _, k := range keys {
		if _, ok := l.overlay[k]; ok {
			continue
		}
		if _, ok := l.memo[k]; ok {
			continue
		}
		l.memo[k] = len(ks) // the answer lands in this slot
		ks = append(ks, k)
	}
	if len(ks) > len(l.memoVals) {
		l.memoVals, l.memoOks = make([]core.Value, cap(ks)), make([]bool, cap(ks))
	}
	l.in.GetBatch(ks, l.memoVals[:len(ks)], l.memoOks[:len(ks)])
	l.memoKeys = ks
}

// Get returns the value for k and whether it was found.
func (l *Logged) Get(k core.Key) (core.Value, bool) {
	v, found, _ := l.probe(k)
	return v, found
}

// Insert adds a new record: append to the log buffer, apply to the overlay,
// acknowledge. The record becomes durable at the next commit.
func (l *Logged) Insert(k core.Key, v core.Value) error {
	if l.corrupt != nil {
		return l.poisonedErr()
	}
	if err := l.in.validate(v); err != nil {
		return err
	}
	_, found, base := l.probe(k)
	if found {
		return core.ErrKeyExists
	}
	l.pending = append(l.pending, logRecord{kind: recUpsert, key: k, val: v})
	l.overlay[k] = entry{val: v, base: base}
	l.count++
	l.maintain()
	return nil
}

// Update modifies an existing record, reporting whether it existed. A
// poisoned log refuses every mutation.
func (l *Logged) Update(k core.Key, v core.Value) bool {
	if l.corrupt != nil || l.in.validate(v) != nil {
		return false
	}
	_, found, base := l.probe(k)
	if !found {
		return false
	}
	l.pending = append(l.pending, logRecord{kind: recUpsert, key: k, val: v})
	l.overlay[k] = entry{val: v, base: base}
	l.maintain()
	return true
}

// Delete removes a record, reporting whether it existed.
func (l *Logged) Delete(k core.Key) bool {
	if l.corrupt != nil {
		return false
	}
	_, found, base := l.probe(k)
	if !found {
		return false
	}
	l.pending = append(l.pending, logRecord{kind: recDelete, key: k})
	l.overlay[k] = entry{tomb: true, base: base}
	l.count--
	l.maintain()
	return true
}

// sortedOverlay fills the batch buffer with the overlay entries whose keys
// lie in [lo, hi], ascending. The result aliases l.batch and lives until the
// next call.
//
// The order comes from an LSD radix sort on the key, one byte per pass from
// the lowest, that skips every byte all the keys share and ping-pongs
// between l.batch and l.spare. Each pass is stable, so ties would keep the
// map's random order: the sort relies on overlay keys being distinct, which
// a map's keys are.
func (l *Logged) sortedOverlay(lo, hi core.Key) []change {
	src := l.batch[:0]
	for k, e := range l.overlay {
		if k >= lo && k <= hi {
			src = append(src, change{key: k, entry: e})
		}
	}
	dst := slices.Grow(l.spare[:0], len(src))[:len(src)]
	var counts [8][256]int
	for _, c := range src {
		for b := range counts {
			counts[b][byte(c.key>>(8*b))]++
		}
	}
	for b := range counts {
		at := &counts[b]
		if len(src) == 0 || at[byte(src[0].key>>(8*b))] == len(src) {
			continue // every key has this byte
		}
		next := 0
		for d, n := range at {
			at[d], next = next, next+n
		}
		for _, c := range src {
			d := byte(c.key >> (8 * b))
			dst[at[d]] = c
			at[d]++
		}
		src, dst = dst, src
	}
	l.batch, l.spare = src, dst
	return src
}

// RangeScan merges the overlay into the structure's ordered scan: overlay
// versions shadow structure versions, tombstones hide them, and overlay-only
// keys are emitted in their key-order position. emit must not mutate l.
func (l *Logged) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	over := l.sortedOverlay(lo, hi)
	i, n := 0, 0
	stopped := false
	emitOverlay := func(c change) bool {
		if c.tomb {
			return true
		}
		n++
		return emit(c.key, c.val)
	}
	l.in.RangeScan(lo, hi, func(k core.Key, v core.Value) bool {
		for i < len(over) && over[i].key < k {
			if !emitOverlay(over[i]) {
				stopped = true
				return false
			}
			i++
		}
		if i < len(over) && over[i].key == k {
			i++
			if !emitOverlay(over[i-1]) {
				stopped = true
				return false
			}
			return true
		}
		n++
		if !emit(k, v) {
			stopped = true
			return false
		}
		return true
	})
	for !stopped && i < len(over) {
		if !emitOverlay(over[i]) {
			break
		}
		i++
	}
	return n
}

// maintain runs the automatic commit and checkpoint triggers after a
// mutation. Failures poison the log rather than un-acknowledge the mutation:
// the record is in the buffer either way, and the poison guarantees nothing
// after the failure point is ever reported durable.
func (l *Logged) maintain() {
	if l.corrupt == nil && len(l.pending) >= l.cfg.CommitBatch {
		_ = l.Commit()
	}
	if l.corrupt == nil && l.cfg.CheckpointEvery > 0 && len(l.overlay) >= l.cfg.CheckpointEvery {
		_ = l.Checkpoint()
	}
}

// Commit group-commits the pending records: one log append — freshly
// allocated, CRC-framed, append-only pages — and one simulated sync make the
// whole batch durable. An empty buffer commits for free.
func (l *Logged) Commit() error {
	if l.corrupt != nil {
		return l.poisonedErr()
	}
	if len(l.pending) == 0 {
		return nil
	}
	// The group's records are encoded straight into the reusable frames,
	// then the whole run of log pages is appended as one submission
	// (appendFrames): on a multi-queue device a large commit group streams
	// its pages at queue depth instead of one append at a time.
	per := l.pool.Device().PageSize() - walHeader
	n, used := 0, 0
	page := l.frame(0)
	for _, r := range l.pending {
		if used+r.size() > per {
			closePayload(page, used)
			n++
			page, used = l.frame(n), 0
		}
		r.put(page[walHeader+used:])
		used += r.size()
	}
	closePayload(page, used)
	if err := l.appendFrames(n + 1); err != nil {
		l.poison(err)
		return err
	}
	l.committed += uint64(len(l.pending))
	l.pending = l.pending[:0]
	l.stats.Commits++
	l.stats.Syncs++
	return nil
}

// Checkpoint absorbs the overlay into the inner structure, makes the
// structure durable through its barrier, seals a checkpoint record that
// opens a fresh log segment, and only then recycles every earlier log page.
// The happens-before chain is strict: records committed, overlay applied,
// barrier durable, checkpoint record durable, old segments freed — a crash
// between any two steps leaves the previous checkpoint authoritative and
// every committed record still replayable.
//
// The overlay is the structure's write buffer: it reaches the structure as
// one sorted batch (inner.absorb), each change carrying the base bit its
// first touch learned, so absorbing costs the structure no second probe and
// no second in-memory buffering.
func (l *Logged) Checkpoint() error {
	if l.corrupt != nil {
		return l.poisonedErr()
	}
	start := time.Now()
	// The structure is about to absorb the overlay: the answers it gave
	// before are not its answers after.
	clear(l.memo)
	if err := l.Commit(); err != nil {
		return err
	}
	// Sorted: a deterministic structure shape regardless of map order, and
	// the order a sorted ingest wants.
	batch := l.sortedOverlay(0, ^core.Key(0))
	if err := l.in.absorb(batch); err != nil {
		l.poison(err)
		return err
	}
	blob, err := l.in.barrier()
	if err != nil {
		l.poison(err)
		return err
	}
	per := l.pool.Device().PageSize() - walHeader
	if len(blob) > per-3 || len(blob) > 1<<16-1 {
		err := fmt.Errorf("wal: checkpoint blob of %d bytes does not fit a log page", len(blob))
		l.poison(err)
		return err
	}
	l.seg++
	page := l.frame(0)
	rec := page[walHeader:]
	rec[0] = recCheckpoint
	binary.LittleEndian.PutUint16(rec[1:3], uint16(len(blob)))
	copy(rec[3:], blob)
	closePayload(page, 3+len(blob))
	if err := l.appendFrames(1); err != nil {
		l.poison(err)
		return err
	}
	l.stats.Syncs++
	// Recycle: every log page of earlier segments is superseded by the
	// checkpoint record. Through the pool, so cached frames are evicted too.
	last := len(l.livePages) - 1
	for _, p := range l.livePages[:last] {
		if l.pool.FreePage(p) == nil {
			l.stats.PagesRecycled++
		}
	}
	l.livePages = append(l.livePages[:0], l.livePages[last])
	clear(l.overlay)
	l.stats.Checkpoints++
	l.stats.CheckpointRecords += uint64(len(batch))
	l.stats.CheckpointNanos += uint64(time.Since(start))
	return nil
}

// Flush checkpoints (core.Flusher). Errors poison the log and surface on
// the next mutation or Commit.
func (l *Logged) Flush() { _ = l.Checkpoint() }

// frame returns the i-th reusable log page image, growing the set on demand
// (a commit group needs ceil(group bytes / page payload) of them, so the set
// stays a handful of pages).
func (l *Logged) frame(i int) []byte {
	for len(l.frames) <= i {
		l.frames = append(l.frames, make([]byte, l.pool.Device().PageSize()))
	}
	return l.frames[i]
}

// closePayload finishes a frame's payload: the used length goes into the
// header and the tail is zeroed, so a reused frame carries nothing of its
// previous life onto the device.
func closePayload(page []byte, used int) {
	binary.LittleEndian.PutUint32(page[24:28], uint32(used))
	clear(page[walHeader+used:])
}

// framedBytes is the log traffic a closed frame stands for: header plus
// payload, not page slack.
func framedBytes(page []byte) uint64 {
	return walHeader + uint64(binary.LittleEndian.Uint32(page[24:28]))
}

// stamp turns a closed frame into a CRC-framed log page image, consuming the
// next sequence number.
func (l *Logged) stamp(page []byte) {
	l.seq++
	binary.LittleEndian.PutUint32(page[0:4], walMagic)
	binary.LittleEndian.PutUint64(page[8:16], l.seq)
	binary.LittleEndian.PutUint64(page[16:24], l.seg)
	binary.LittleEndian.PutUint32(page[4:8], crc32.ChecksumIEEE(page[8:framedBytes(page)]))
}

// appendFrames appends the first n frames as a run of log pages: each is
// stamped and given a freshly allocated page, and the run goes to the device
// as one submission (Device.ReplaceBatch), each frame becoming its page's
// image and the page's previous buffer becoming the frame. The device alone
// prices it: at depth on a multi-queue medium, page by page on a flat one. A
// failed submission keeps the pages it reached — the device writes a
// batch's prefix, as it would have written those pages one by one — and the
// log is poisoned by the caller. The pages allocated past the failed one
// hold no log image, so recovery frees them as orphans. Sequence numbers are
// consumed even for pages that failed — sequence order is append order,
// holes included.
func (l *Logged) appendFrames(n int) error {
	dev := l.pool.Device()
	run, first, bytes := l.frames[:n], len(l.livePages), uint64(0)
	for _, page := range run {
		l.stamp(page)
		bytes += framedBytes(page)
		l.livePages = append(l.livePages, dev.Alloc(rum.Aux))
	}
	// run[:k] now hold the pages' previous buffers; run[k:] are still the
	// frames the device did not take.
	k, err := dev.ReplaceBatch(l.livePages[first:], run)
	for _, page := range run[k:] {
		bytes -= framedBytes(page)
	}
	l.livePages = l.livePages[:first+k]
	l.stats.LogPagesWritten += uint64(k)
	l.stats.LogBytesWritten += bytes
	return err
}

func (l *Logged) poison(err error) {
	if l.corrupt == nil {
		l.corrupt = err
	}
}

func (l *Logged) poisonedErr() error {
	return fmt.Errorf("wal: log poisoned by earlier failure: %w", l.corrupt)
}
