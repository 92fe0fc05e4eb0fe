package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/skiplist"
	"repro/internal/storage"
)

// The manifest is the LSM's durability anchor (Config.Manifest): a snapshot
// of the run directory — which pages belong to which run on which level —
// written straight to the device after every fully-successful Flush, the way
// a real LSM fsyncs its MANIFEST. Each checkpoint writes a fresh chain of
// checksummed pages under a new generation number and only then releases the
// previous chain, so a crash at any write leaves at least one complete
// manifest on the device. Run pages freed by compaction are quarantined
// (pendingFree) until the next checkpoint commits, which keeps every page a
// committed manifest references unallocated-for-reuse and byte-stable.
//
// Manifest page layout (one device page):
//
//	bytes 0:4    magic "LSMM"
//	bytes 4:8    CRC32 (IEEE) of bytes 8:end
//	bytes 8:16   generation (uint64, starts at 1)
//	bytes 16:20  page index within the chain (uint32)
//	bytes 20:24  total pages in the chain (uint32)
//	bytes 24:28  payload bytes in this page (uint32)
//	bytes 28:    payload
//
// Payload, concatenated across the chain (little-endian):
//
//	uint64 record count estimate
//	uint32 number of levels
//	per level:  uint32 number of runs
//	per run:    uint64 first key, uint64 last key,
//	            uint32 record count, uint32 page count, pages (uint32 each)
const (
	manifestMagic  = 0x4D4D534C // "LSMM"
	manifestHeader = 28
)

// writeManifest checkpoints the current run directory under the next
// generation. On success it frees the previous manifest chain and every
// quarantined run page; on any error it changes nothing durable — the
// previous checkpoint stays authoritative (freshly allocated pages are left
// for recovery's orphan GC, exactly like a torn real-world checkpoint).
func (t *Tree) writeManifest() error {
	payload := t.encodeManifest()
	dev := t.pool.Device()
	per := dev.PageSize() - manifestHeader
	if per <= 0 {
		return fmt.Errorf("lsm: page size %d too small for a manifest", dev.PageSize())
	}
	total := (len(payload) + per - 1) / per
	if total == 0 {
		total = 1
	}
	gen := t.gen + 1
	page := make([]byte, dev.PageSize())
	var chain []storage.PageID
	for i := 0; i < total; i++ {
		lo := i * per
		hi := lo + per
		if hi > len(payload) {
			hi = len(payload)
		}
		clear(page)
		binary.LittleEndian.PutUint32(page[0:4], manifestMagic)
		binary.LittleEndian.PutUint64(page[8:16], gen)
		binary.LittleEndian.PutUint32(page[16:20], uint32(i))
		binary.LittleEndian.PutUint32(page[20:24], uint32(total))
		binary.LittleEndian.PutUint32(page[24:28], uint32(hi-lo))
		copy(page[manifestHeader:], payload[lo:hi])
		binary.LittleEndian.PutUint32(page[4:8], crc32.ChecksumIEEE(page[8:]))
		id := dev.Alloc(rum.Aux)
		if err := dev.Write(id, page); err != nil {
			return err
		}
		chain = append(chain, id)
	}
	// Commit point: the new chain is fully on the device. Release the old
	// chain and the quarantined run pages.
	for _, id := range t.manifest {
		_ = dev.Free(id)
	}
	for _, id := range t.pendingFree {
		_ = t.pool.FreePage(id)
	}
	t.manifest = chain
	t.pendingFree = nil
	t.gen = gen
	t.stats.ManifestWrites++
	return nil
}

// encodeManifest serializes the run directory.
func (t *Tree) encodeManifest() []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(t.count))
	u32(uint32(len(t.levels)))
	for _, lv := range t.levels {
		u32(uint32(len(lv)))
		for _, r := range lv {
			u64(r.first)
			u64(r.last)
			u32(uint32(r.count))
			u32(uint32(len(r.pages)))
			for _, pid := range r.pages {
				u32(uint32(pid))
			}
		}
	}
	return b
}

// manifestPage is one decoded manifest page header during recovery.
type manifestPage struct {
	id      storage.PageID
	gen     uint64
	index   uint32
	total   uint32
	payload []byte
}

// Recover rebuilds a tree from the surviving device image under pool. It
// requires cfg.Manifest (a tree without checkpoints has nothing durable to
// recover — use New). The newest complete, checksum-valid manifest chain
// wins; every run it lists is re-read and validated (page counts, key
// order, fences, filters are rebuilt), and every live page outside that
// manifest — orphan runs of an interrupted compaction, stale chains,
// zeroed allocations — is freed. An image with live pages but no decodable
// manifest fails loudly.
func Recover(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	return RecoverKeep(pool, cfg, nil)
}

// RecoverKeep is Recover with a carve-out for pages owned by another
// subsystem sharing the device: orphan GC skips every live page keep reports
// true for. The write-ahead log recovers the LSM this way — log pages are
// not the manifest's to free. keep == nil behaves exactly like Recover.
func RecoverKeep(pool *storage.BufferPool, cfg Config, keep func(storage.PageID) bool) (*Tree, error) {
	cfg.defaults()
	if !cfg.Manifest {
		return nil, fmt.Errorf("lsm: recovery requires Config.Manifest")
	}
	dev := pool.Device()
	live := dev.LivePageIDs()
	if len(live) == 0 {
		return New(pool, cfg), nil
	}

	// Collect checksum-valid manifest pages, grouped by generation.
	chains := make(map[uint64][]manifestPage)
	for _, id := range live {
		data, err := dev.Read(id)
		if err != nil {
			return nil, fmt.Errorf("lsm: recovery read of page %d: %w", id, err)
		}
		if len(data) < manifestHeader || binary.LittleEndian.Uint32(data[0:4]) != manifestMagic {
			continue
		}
		if binary.LittleEndian.Uint32(data[4:8]) != crc32.ChecksumIEEE(data[8:]) {
			continue // torn or stale manifest page
		}
		mp := manifestPage{
			id:    id,
			gen:   binary.LittleEndian.Uint64(data[8:16]),
			index: binary.LittleEndian.Uint32(data[16:20]),
			total: binary.LittleEndian.Uint32(data[20:24]),
		}
		n := binary.LittleEndian.Uint32(data[24:28])
		if int(n) > len(data)-manifestHeader {
			continue
		}
		mp.payload = append([]byte(nil), data[manifestHeader:manifestHeader+int(n)]...)
		chains[mp.gen] = append(chains[mp.gen], mp)
	}

	// Pick the newest complete chain.
	var best uint64
	var bestChain []manifestPage
	for gen, pages := range chains {
		if gen <= best {
			continue
		}
		if chain, ok := assembleChain(pages); ok {
			best, bestChain = gen, chain
		}
	}
	if bestChain == nil {
		return nil, fmt.Errorf("lsm: no complete manifest among %d live pages", len(live))
	}
	var payload []byte
	var chainIDs []storage.PageID
	for _, mp := range bestChain {
		payload = append(payload, mp.payload...)
		chainIDs = append(chainIDs, mp.id)
	}

	t := New(pool, cfg)
	t.gen = best
	t.manifest = chainIDs
	used := make(map[storage.PageID]bool)
	for _, id := range chainIDs {
		used[id] = true
	}
	if err := t.decodeManifest(payload, used); err != nil {
		return nil, err
	}
	// Re-read every run to rebuild fences and filters, validating as we go.
	for _, lv := range t.levels {
		for _, r := range lv {
			if err := t.rebuildRun(r); err != nil {
				return nil, err
			}
		}
	}
	// Orphan GC: anything alive that neither the manifest nor keep owns.
	if err := pool.FreeExcept(func(id storage.PageID) bool { return used[id] || keep != nil && keep(id) }); err != nil {
		return nil, fmt.Errorf("lsm: recovery GC: %w", err)
	}
	return t, nil
}

// assembleChain orders one generation's pages 0..total-1, rejecting gaps,
// duplicates, and inconsistent totals.
func assembleChain(pages []manifestPage) ([]manifestPage, bool) {
	if len(pages) == 0 {
		return nil, false
	}
	total := pages[0].total
	if int(total) != len(pages) {
		return nil, false
	}
	out := make([]manifestPage, total)
	seen := make([]bool, total)
	for _, mp := range pages {
		if mp.total != total || mp.index >= total || seen[mp.index] {
			return nil, false
		}
		seen[mp.index] = true
		out[mp.index] = mp
	}
	return out, true
}

// decodeManifest parses payload into t.levels and t.count, marking every
// referenced run page in used.
func (t *Tree) decodeManifest(payload []byte, used map[storage.PageID]bool) error {
	off := 0
	fail := func() error { return fmt.Errorf("lsm: manifest payload truncated at byte %d", off) }
	u32 := func() (uint32, bool) {
		if off+4 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v, true
	}
	count, ok := u64()
	if !ok {
		return fail()
	}
	t.count = int(count)
	nLevels, ok := u32()
	if !ok || uint64(nLevels)*4 > uint64(len(payload)-off) { // every level costs its run count
		return fail()
	}
	t.levels = make([][]*run, nLevels)
	for li := range t.levels {
		nRuns, ok := u32()
		if !ok {
			return fail()
		}
		for ri := uint32(0); ri < nRuns; ri++ {
			r := &run{}
			var rc, np uint32
			if r.first, ok = u64(); !ok {
				return fail()
			}
			if r.last, ok = u64(); !ok {
				return fail()
			}
			if rc, ok = u32(); !ok {
				return fail()
			}
			if np, ok = u32(); !ok {
				return fail()
			}
			r.count = int(rc)
			for pi := uint32(0); pi < np; pi++ {
				pid, ok := u32()
				if !ok {
					return fail()
				}
				if used[storage.PageID(pid)] {
					return fmt.Errorf("lsm: manifest references page %d twice", pid)
				}
				used[storage.PageID(pid)] = true
				r.pages = append(r.pages, storage.PageID(pid))
			}
			t.levels[li] = append(t.levels[li], r)
		}
	}
	if off != len(payload) {
		return fmt.Errorf("lsm: %d trailing bytes in manifest payload", len(payload)-off)
	}
	return nil
}

// rebuildRun re-reads a recovered run's pages, validating record counts and
// key order and reconstructing the fences and Bloom filter the manifest
// does not store.
func (t *Tree) rebuildRun(r *run) error {
	if r.count == 0 {
		if len(r.pages) != 0 {
			return fmt.Errorf("lsm: empty run with %d pages", len(r.pages))
		}
		return nil
	}
	if r.count > len(r.pages)*t.perPage() { // before the count sizes a filter
		return fmt.Errorf("lsm: run of %d pages has impossible record count %d", len(r.pages), r.count)
	}
	if t.cfg.BloomBitsPerKey > 0 {
		r.filter = bloom.NewFilter(r.count, t.cfg.BloomBitsPerKey, t.meter)
	}
	seen := 0
	var prev core.Key
	for _, pid := range r.pages {
		f, err := t.pool.Fetch(pid)
		if err != nil {
			return fmt.Errorf("lsm: recovery read of run page %d: %w", pid, err)
		}
		data := f.Data()
		n := pageCount(data)
		if n <= 0 || n > t.perPage() {
			t.pool.Release(f)
			return fmt.Errorf("lsm: run page %d has impossible record count %d", pid, n)
		}
		r.fences = append(r.fences, binary.LittleEndian.Uint64(data[pageHeader:]))
		for j := 0; j < n; j++ {
			rec := core.DecodeRecord(data[pageHeader+j*core.RecordSize:])
			if seen > 0 && rec.Key <= prev {
				t.pool.Release(f)
				return fmt.Errorf("lsm: run page %d breaks key order at %d", pid, rec.Key)
			}
			prev = rec.Key
			seen++
			if r.filter != nil {
				r.filter.Add(rec.Key)
			}
		}
		t.pool.Release(f)
	}
	if seen != r.count {
		return fmt.Errorf("lsm: run holds %d records, manifest says %d", seen, r.count)
	}
	if r.fences[0] != r.first || prev != r.last {
		return fmt.Errorf("lsm: run key range [%d,%d] disagrees with manifest [%d,%d]", r.fences[0], prev, r.first, r.last)
	}
	return nil
}

// newMemtable builds the volatile memtable New and Recover share.
func newMemtable(meter *rum.Meter) *skiplist.List {
	return skiplist.New(42, 0.5, meter)
}
