package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rum"
)

// modelPool is the reference the slice-table BufferPool is held to: the same
// replacement, write-back and readahead policy written the obvious way — a
// map for the page table, a slice in recency order for the LRU list, a fresh
// buffer for every install, a copying Write for every write-back. It drives
// its own Device, so the two sides' device traffic is comparable event for
// event, and since nothing on the model side ever shares a buffer, that
// device's pages are the images the pool side's device must hold: they change
// at a write-back and at no other time. Who owns a page image is tracked as a
// flag, for the Unshares and Handovers counts. Fault injection is left out:
// fault_test.go covers those paths, and they never touch the page table.
type modelPool struct {
	dev      *Device
	capacity int
	ioBatch  int
	frames   map[PageID]*modelFrame
	order    []*modelFrame // most recently used first
	stats    PoolStats
	hook     Hook
	taken    uint64 // buffers the pool side should have taken: see takeBuf
}

type modelFrame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	// private: the frame has a buffer of its own to write. False from a miss
	// until the first markDirty, and again after a write-back that found the
	// frame unpinned (a hand-over); a pinned frame's write-back copies.
	private bool
	// prefetched: readahead installed the page and no fetch has asked for it.
	prefetched bool
}

func (m *modelPool) markDirty(f *modelFrame) {
	if !f.private {
		f.private = true
		m.stats.Unshares++
		m.taken++
	}
	f.dirty = true
}

func newModelPool(dev *Device, capacity int) *modelPool {
	return &modelPool{dev: dev, capacity: capacity, ioBatch: max(dev.CostModel().Channels, 1),
		frames: map[PageID]*modelFrame{}}
}

func (m *modelPool) emit(ev Event, id PageID) {
	if m.hook != nil {
		m.hook.StorageEvent(ev, id, m.dev.Class(id), 0)
	}
}

func (m *modelPool) remove(f *modelFrame) {
	for i, g := range m.order {
		if g == f {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	delete(m.frames, f.id)
}

// leave is a frame evicted, dropped or freed: one readahead installed for
// nothing, if no fetch asked for it.
func (m *modelPool) leave(f *modelFrame) {
	m.remove(f)
	if f.prefetched {
		m.stats.PrefetchUnused++
	}
}

func (m *modelPool) add(id PageID, pins int) *modelFrame {
	f := &modelFrame{id: id, data: make([]byte, m.dev.PageSize()), pins: pins}
	m.order = append([]*modelFrame{f}, m.order...)
	m.frames[id] = f
	return f
}

func (m *modelPool) dirtyCount() int {
	n := 0
	for _, f := range m.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

func (m *modelPool) fetch(id PageID) (*modelFrame, error) {
	if f, ok := m.frames[id]; ok {
		m.stats.Hits++
		if f.prefetched {
			f.prefetched = false
			m.stats.PrefetchHits++
		}
		f.pins++
		m.remove(f)
		m.order = append([]*modelFrame{f}, m.order...)
		m.frames[id] = f
		m.emit(EvHit, id)
		return f, nil
	}
	src, err := m.dev.Read(id)
	if err != nil {
		m.stats.FetchFailures++
		return nil, err
	}
	m.stats.Misses++
	m.emit(EvMiss, id)
	f := m.install(id)
	copy(f.data, src)
	return f, nil
}

func (m *modelPool) newPage(c rum.Class) *modelFrame {
	f := m.install(m.dev.Alloc(c))
	f.dirty, f.private = true, true
	m.taken++
	return f
}

func (m *modelPool) install(id PageID) *modelFrame {
	if len(m.frames) >= m.capacity && !m.evictOne() {
		m.stats.Overflows++
	}
	return m.add(id, 1)
}

func (m *modelPool) evictOne() bool {
	for i := len(m.order) - 1; i >= 0; i-- {
		f := m.order[i]
		if f.pins > 0 || (f.dirty && !m.flushVictim(f)) {
			continue
		}
		m.leave(f)
		m.stats.Evictions++
		m.emit(EvEvict, f.id)
		return true
	}
	return false
}

func (m *modelPool) flushFrame(f *modelFrame) bool {
	err := m.dev.Write(f.id, f.data)
	if errors.Is(err, ErrFreed) || errors.Is(err, ErrBadPage) {
		f.dirty = false
		return true
	}
	if err != nil {
		m.stats.FlushFailures++
		return false
	}
	m.wroteBack(f)
	return true
}

func (m *modelPool) wroteBack(f *modelFrame) {
	f.dirty = false
	m.stats.WriteBacks++
	if f.pins == 0 {
		f.private = false
		m.stats.Handovers++
	}
	m.emit(EvWriteBack, f.id)
}

func (m *modelPool) flushGroup(group []*modelFrame) {
	if len(group) == 1 {
		m.flushFrame(group[0])
		return
	}
	var ids []PageID
	var data [][]byte
	for _, f := range group {
		ids, data = append(ids, f.id), append(data, f.data)
		if f.pins > 0 {
			m.taken++ // a batch hands buffers over: a pinned frame's is a copy
		}
	}
	if err := m.dev.WriteBatch(ids, data); err != nil {
		panic(err) // no injector, no crash: the model's batches cannot fail
	}
	for _, f := range group {
		m.wroteBack(f)
	}
}

func (m *modelPool) flushVictim(victim *modelFrame) bool {
	if m.ioBatch <= 1 {
		return m.flushFrame(victim)
	}
	group := []*modelFrame{victim}
	for i := len(m.order) - 1; i >= 0 && len(group) < m.ioBatch; i-- {
		f := m.order[i]
		if f == victim || f.pins > 0 || !f.dirty {
			continue
		}
		if m.dev.check(f.id) != nil {
			f.dirty = false
			continue
		}
		group = append(group, f)
	}
	m.flushGroup(group)
	return !victim.dirty
}

func (m *modelPool) freePage(id PageID) error {
	if f, ok := m.frames[id]; ok {
		if f.pins > 0 {
			return errors.New("pinned")
		}
		m.leave(f)
	}
	return m.dev.Free(id)
}

func (m *modelPool) flushAll() {
	var group []*modelFrame
	for i := len(m.order) - 1; i >= 0; i-- {
		f := m.order[i]
		if !f.dirty {
			continue
		}
		if m.ioBatch <= 1 {
			m.flushFrame(f)
			continue
		}
		if m.dev.check(f.id) != nil {
			f.dirty = false
			continue
		}
		if group = append(group, f); len(group) == m.ioBatch {
			m.flushGroup(group)
			group = nil
		}
	}
	if len(group) > 0 {
		m.flushGroup(group)
	}
}

func (m *modelPool) dropAll() {
	m.flushAll()
	for _, f := range append([]*modelFrame(nil), m.order...) {
		if f.pins == 0 && !f.dirty {
			m.leave(f)
		}
	}
}

func (m *modelPool) crash() {
	m.frames, m.order = map[PageID]*modelFrame{}, nil
}

func (m *modelPool) readahead(ids []PageID) int {
	if m.ioBatch <= 1 {
		return 0
	}
	var want []PageID
	for _, id := range ids {
		if _, ok := m.frames[id]; ok || slices.Contains(want, id) || m.dev.check(id) != nil {
			continue
		}
		if want = append(want, id); len(want) == max(m.capacity/2, 1) {
			break
		}
	}
	installed := 0
	for len(want) > 0 {
		chunk := want[:min(len(want), m.ioBatch)]
		want = want[len(chunk):]
		pages, err := m.dev.ReadBatch(chunk)
		if err != nil {
			panic(err)
		}
		for i, id := range chunk {
			if len(m.frames) >= m.capacity && !m.evictOne() {
				return installed
			}
			f := m.add(id, 0)
			copy(f.data, pages[i])
			f.prefetched = true
			m.stats.Misses++
			m.emit(EvMiss, id)
			installed++
		}
	}
	return installed
}

// poolDiff is what one driven stream exercised, so the seeded test can
// require that its streams reached the cases the page table differs on.
type poolDiff struct {
	reusedIDs int // NewPage calls answered with an id the device's free list recycled
	tableLen  int // the page table's final length in slots
}

// drivePoolAgainstModel interprets script as a sequence of pool calls, makes
// each on a BufferPool and on the model, and fails on the first divergence in
// results, PoolStats, Len, DirtyCount, LRU order (checkOrder), any resident
// frame's contents or ownership, or any device page image (checkImages); at
// the end the two full hook event streams (pool and device events
// interleaved), the batch submissions and the device ledgers must be equal.
// Every second script byte is an operand, so any byte string is a valid
// script.
func drivePoolAgainstModel(t *testing.T, script []byte) poolDiff {
	t.Helper()
	if len(script) < 2 {
		return poolDiff{}
	}
	medium := SSD // per-page I/O
	if script[0]&1 == 1 {
		medium = MQSSD // batched write-back and readahead
	}
	capacity := 1 + int(script[1])%12
	script = script[2:]

	var gotEv, wantEv recorder
	dp, dm := NewDevice(64, medium, nil), NewDevice(64, medium, nil)
	dp.SetHook(&gotEv)
	dm.SetHook(&wantEv)
	p, m := NewBufferPool(dp, capacity), newModelPool(dm, capacity)
	m.hook = &wantEv

	type pin struct {
		f  *Frame
		mf *modelFrame
		w  []byte // the Data() this holder last wrote through, nil if it has not
	}
	var (
		pins []pin
		ids  []PageID // every id NewPage ever returned, freed ones included
		seen = map[PageID]bool{}
		out  poolDiff
		fill byte

		newPages uint64
	)
	pick := func(b byte) PageID {
		if len(ids) == 0 {
			return PageID(b) // nothing allocated yet: a bad page on both sides
		}
		return ids[int(b)%len(ids)]
	}
	// scribble writes the page the way a holder must: MarkDirty, then the
	// slice Data returns. A holder that wrote before keeps writing through the
	// slice it has — while it stays pinned no write-back may take that buffer
	// away, FlushAll included.
	scribble := func(pn *pin) {
		fill++
		pn.f.MarkDirty()
		m.markDirty(pn.mf)
		if pn.w == nil {
			pn.w = pn.f.Data()
		}
		for i := range pn.w {
			pn.w[i], pn.mf.data[i] = fill, fill
		}
	}
	// hold keeps one pin in four and releases the rest at once, so that the
	// pool is usually evictable and sometimes (small pools) fully pinned.
	hold := func(pn pin, arg byte) {
		if arg&6 == 0 {
			pins = append(pins, pn)
			return
		}
		p.Release(pn.f)
		pn.mf.pins--
	}
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step]%16, script[step+1]
		switch {
		case op < 4: // Fetch, writing the page on odd operands
			id := pick(arg)
			f, err := p.Fetch(id)
			mf, merr := m.fetch(id)
			if (err == nil) != (merr == nil) {
				t.Fatalf("step %d: Fetch(%d): pool err %v, model err %v", step, id, err, merr)
			}
			if err != nil {
				break
			}
			if !bytes.Equal(f.Data(), mf.data) {
				t.Fatalf("step %d: Fetch(%d) shows %x, model %x", step, id, f.Data(), mf.data)
			}
			pn := pin{f: f, mf: mf}
			if arg&1 == 1 {
				scribble(&pn)
			}
			hold(pn, arg)
		case op == 4: // Peek: the resident image or nil, and nothing else moves
			id := pick(arg)
			var want []byte
			if mf := m.frames[id]; mf != nil {
				want = mf.data
			}
			if got := p.Peek(id); (got == nil) != (want == nil) || !bytes.Equal(got, want) {
				t.Fatalf("step %d: Peek(%d) shows %x, model %x", step, id, got, want)
			}
		case op < 8: // NewPage, or NewPageForOverwrite on operands with bit 3 set
			c := rum.Class(arg & 1)
			overwrite := arg&8 != 0
			newPage := p.NewPage
			if overwrite {
				newPage = p.NewPageForOverwrite
			}
			f, err := newPage(c)
			if err != nil {
				t.Fatal(err)
			}
			mf := m.newPage(c)
			if f.ID() != mf.id {
				t.Fatalf("step %d: NewPage: pool got page %d, model %d", step, f.ID(), mf.id)
			}
			// An overwrite frame's bytes are unspecified until scribble below
			// writes all of them.
			if !overwrite && !bytes.Equal(f.Data(), mf.data) {
				t.Fatalf("step %d: NewPage(%d) shows %x, want zeroes", step, f.ID(), f.Data())
			}
			if seen[f.ID()] {
				out.reusedIDs++
			} else {
				seen[f.ID()] = true
				ids = append(ids, f.ID())
			}
			newPages++
			pn := pin{f: f, mf: mf}
			scribble(&pn)
			hold(pn, arg)
		case op < 12: // Release, one time in four after writing the page (again)
			if len(pins) == 0 {
				break
			}
			i := int(arg) % len(pins)
			if arg&192 == 0 {
				scribble(&pins[i])
			}
			p.Release(pins[i].f)
			pins[i].mf.pins--
			pins = append(pins[:i], pins[i+1:]...)
		case op == 12: // FreePage, pinned pages included (both sides refuse)
			id := pick(arg)
			err, merr := p.FreePage(id), m.freePage(id)
			if (err == nil) != (merr == nil) {
				t.Fatalf("step %d: FreePage(%d): pool err %v, model err %v", step, id, err, merr)
			}
		case op == 13: // Readahead of a run of known ids, now and then one named twice
			var run []PageID
			for i := 0; i < 1+int(arg)%9 && len(ids) > 0; i++ {
				run = append(run, ids[(int(arg)+i)%len(ids)])
			}
			if arg&0x80 != 0 && len(run) > 0 {
				run = append(run, run[int(arg)%len(run)])
			}
			if got, want := p.Readahead(run), m.readahead(run); got != want {
				t.Fatalf("step %d: Readahead(%v) installed %d, model %d", step, run, got, want)
			}
		case op == 14:
			if arg&1 == 0 {
				p.FlushAll()
				m.flushAll()
			} else {
				p.DropAll()
				m.dropAll()
			}
		default: // Crash, rarely: it empties the pool and orphans every pin
			if arg%4 != 0 {
				break
			}
			p.Crash()
			m.crash()
			pins = nil
		}
		if p.Stats() != m.stats || p.Len() != len(m.frames) || p.DirtyCount() != m.dirtyCount() {
			t.Fatalf("step %d (op %d, arg %d): pool %+v Len %d dirty %d; model %+v Len %d dirty %d",
				step, op, arg, p.Stats(), p.Len(), p.DirtyCount(), m.stats, len(m.frames), m.dirtyCount())
		}
		checkLRU(t, p)
		checkOrder(t, step, p, m)
		checkImages(t, step, p, m)
		if st := p.Stats(); p.taken != m.taken || m.taken < st.Unshares+newPages {
			t.Fatalf("step %d: pool took %d buffers, model %d, for %d unshares and %d new pages",
				step, p.taken, m.taken, st.Unshares, newPages)
		}
	}
	if dp.Stats() != dm.Stats() {
		t.Fatalf("device ledgers differ: pool side %+v, model side %+v", dp.Stats(), dm.Stats())
	}
	if len(gotEv.events) != len(wantEv.events) {
		t.Fatalf("pool side emitted %d events, model side %d", len(gotEv.events), len(wantEv.events))
	}
	for i, e := range gotEv.events {
		if e != wantEv.events[i] {
			t.Fatalf("event %d: pool side %+v, model side %+v", i, e, wantEv.events[i])
		}
	}
	if len(gotEv.batches) != len(wantEv.batches) {
		t.Fatalf("pool side submitted %d batches, model side %d", len(gotEv.batches), len(wantEv.batches))
	}
	for i, b := range gotEv.batches {
		if b != wantEv.batches[i] {
			t.Fatalf("batch %d: pool side %+v, model side %+v", i, b, wantEv.batches[i])
		}
	}
	out.tableLen = len(p.frames)
	return out
}

// checkOrder holds the pool's LRU list to the model's recency order, frame
// for frame, so that both sides pick the same victim at the next eviction.
func checkOrder(t *testing.T, step int, p *BufferPool, m *modelPool) {
	t.Helper()
	i := 0
	for f := p.lru.next; f != &p.lru; f, i = f.next, i+1 {
		if i >= len(m.order) || f.id != m.order[i].id {
			t.Fatalf("step %d: the pool's frame %d at recency %d is not the model's (%d frames)", step, f.id, i, len(m.order))
		}
	}
	if i != len(m.order) {
		t.Fatalf("step %d: the pool lists %d frames, the model %d", step, i, len(m.order))
	}
}

// checkImages holds the pool side to the one-image rule after a step. Every
// live device page holds exactly what the model's device holds — the last
// image written back, so no frame write has reached the device early and a
// Crash leaves nothing else behind. Every resident frame shows the model
// frame's bytes and owns a buffer exactly when the model says so, a clean one
// shows the device's image, and the private buffers the pool holds, owned and
// spare, stay within its capacity unless pinned frames overflowed it.
func checkImages(t *testing.T, step int, p *BufferPool, m *modelPool) {
	t.Helper()
	dp, dm := p.dev, m.dev
	for id := range dm.pages {
		if dm.live[id] && !bytes.Equal(dp.pages[id], dm.pages[id]) {
			t.Fatalf("step %d: device page %d holds %x, last written back %x", step, id, dp.pages[id], dm.pages[id])
		}
	}
	owned := 0
	for id, f := range p.frames {
		if f == nil {
			continue
		}
		mf := m.frames[PageID(id)]
		if mf == nil || f.dirty != mf.dirty || f.owned != mf.private || int(f.pins) != mf.pins {
			t.Fatalf("step %d: frame %d is %+v, model %+v", step, id, f, mf)
		}
		if !bytes.Equal(f.data, mf.data) {
			t.Fatalf("step %d: frame %d shows %x, model %x", step, id, f.data, mf.data)
		}
		if !f.dirty && dp.check(f.id) == nil && !bytes.Equal(f.data, dp.pages[id]) {
			t.Fatalf("step %d: clean frame %d shows %x, device holds %x", step, id, f.data, dp.pages[id])
		}
		if f.owned {
			owned++
		}
	}
	if owned != p.owned || p.owned+len(p.spare) > max(p.capacity, p.owned) {
		t.Fatalf("step %d: %d frames own a buffer, pool counts %d owned + %d spare, capacity %d",
			step, owned, p.owned, len(p.spare), p.capacity)
	}
}

// TestPoolAgainstModel drives seeded random streams through the slice-table
// pool and the map-based model, on per-page and on batched media. Between
// them the streams must have met the two cases a dense table adds to a map:
// an id freed and handed out again by the device's free list, and a table
// grown past its first size.
func TestPoolAgainstModel(t *testing.T) {
	var reused, grown int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 2+2*1500)
		rng.Read(script)
		out := drivePoolAgainstModel(t, script)
		reused += out.reusedIDs
		if out.tableLen > minPageTable {
			grown++
		}
	}
	if reused == 0 || grown == 0 {
		t.Fatalf("the streams recycled %d ids and grew %d tables past %d slots; both must happen", reused, grown, minPageTable)
	}
}

// FuzzPoolAgainstModel is the same driver under `go test -fuzz`.
func FuzzPoolAgainstModel(f *testing.F) {
	// Allocate, release, free, allocate again: the free list hands the id back.
	f.Add([]byte{0, 3, 5, 0, 8, 0, 12, 0, 5, 1, 0, 0, 8, 0})
	// Batched medium, one-frame pool: every install evicts a dirty victim.
	f.Add([]byte{1, 0, 5, 0, 8, 0, 5, 1, 8, 0, 5, 0, 8, 0, 0, 1, 8, 0, 14, 1})
	// Readahead, FlushAll, DropAll and Crash over a handful of pages.
	f.Add([]byte{1, 7, 5, 0, 8, 0, 6, 1, 8, 0, 7, 0, 8, 0, 14, 1, 13, 3, 0, 2, 15, 0, 13, 1, 14, 0})
	// NewPageForOverwrite on a fresh id, then on one the free list recycled,
	// read back through a fetch after each write-back.
	f.Add([]byte{0, 3, 5, 10, 14, 0, 0, 2, 12, 0, 5, 11, 14, 1, 0, 2})
	for seed := int64(1); seed <= 3; seed++ {
		script := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		drivePoolAgainstModel(t, script)
	})
}
