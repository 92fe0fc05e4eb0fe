package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rum"
)

func allocN(t *testing.T, d *Device, n int, c rum.Class) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		ids[i] = d.Alloc(c)
	}
	return ids
}

// TestBatchCostModel pins the charging rule: a batch of n pages costs
// ceil(n/channels) waves of the per-page service time, and the achieved
// depth clamps at the channel limit.
func TestBatchCostModel(t *testing.T) {
	m := MQSSD.Model() // read 4, write 20, 8 channels
	cases := []struct {
		n     int
		read  uint64
		write uint64
		depth int
	}{
		{1, 4, 20, 1},
		{7, 4, 20, 7},
		{8, 4, 20, 8},
		{9, 8, 40, 8},
		{16, 8, 40, 8},
		{17, 12, 60, 8},
		{64, 32, 160, 8},
	}
	for _, c := range cases {
		if got := m.BatchCost(c.n, false); got != c.read {
			t.Fatalf("BatchCost(%d, read) = %d, want %d", c.n, got, c.read)
		}
		if got := m.BatchCost(c.n, true); got != c.write {
			t.Fatalf("BatchCost(%d, write) = %d, want %d", c.n, got, c.write)
		}
		if got := m.Depth(c.n); got != c.depth {
			t.Fatalf("Depth(%d) = %d, want %d", c.n, got, c.depth)
		}
	}
	// Flat media: a batch prices exactly like sequential accesses.
	flat := SSD.Model()
	if got := flat.BatchCost(16, true); got != 16*flat.WriteCost {
		t.Fatalf("flat batch cost %d, want %d", got, 16*flat.WriteCost)
	}
}

// TestDeviceBatchCharging drives ReadBatch/WriteBatch on an MQSSD and checks
// the ledger: batch cost at achieved depth, per-page event cost shares that
// sum exactly to it, and the batch counters.
func TestDeviceBatchCharging(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, MQSSD, nil)
	d.SetHook(rec)
	ids := allocN(t, d, 12, rum.Base)

	data := make([][]byte, len(ids))
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
	}
	if err := d.WriteBatch(ids, data); err != nil {
		t.Fatal(err)
	}
	// 12 pages over 8 channels: 2 waves of write cost 20 → 40 units.
	if st := d.Stats(); st.PageWrites != 12 || st.CostUnits != 40 || st.Batches != 1 || st.BatchedPages != 12 {
		t.Fatalf("write batch stats: %+v", st)
	}
	pages, err := d.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		if pg[0] != byte(i+1) {
			t.Fatalf("page %d contents %x", i, pg[0])
		}
	}
	// 12 reads: 2 waves of read cost 4 → 8 more units.
	if st := d.Stats(); st.PageReads != 12 || st.CostUnits != 48 || st.Batches != 2 || st.BatchedPages != 24 {
		t.Fatalf("read batch stats: %+v", st)
	}

	// Per-page event shares sum exactly to each batch's cost, and the batch
	// events arrive after their pages with the achieved depth.
	var wrote, read uint64
	for _, e := range rec.events {
		switch e.Ev {
		case EvWrite:
			wrote += e.Cost
		case EvRead:
			read += e.Cost
		}
	}
	if wrote != 40 || read != 8 {
		t.Fatalf("event cost shares: write %d read %d", wrote, read)
	}
	want := []recordedBatch{{true, 12, 8, 40}, {false, 12, 8, 8}}
	if len(rec.batches) != len(want) {
		t.Fatalf("batch events: %+v", rec.batches)
	}
	for i, b := range rec.batches {
		if b != want[i] {
			t.Fatalf("batch event %d: %+v want %+v", i, b, want[i])
		}
	}
}

// TestBatchSequentialEquivalence checks the flat-media contract: there batch
// calls are exactly equivalent to per-page calls — same stats, same cost, no
// batch accounting.
func TestBatchSequentialEquivalence(t *testing.T) {
	t.Run("flat-ssd", func(t *testing.T) {
		batched := NewDevice(64, SSD, nil)
		plain := NewDevice(64, SSD, nil)
		ids := allocN(t, batched, 6, rum.Base)
		allocN(t, plain, 6, rum.Base)
		data := make([][]byte, len(ids))
		for i := range data {
			data[i] = bytes.Repeat([]byte{byte(i)}, 64)
		}
		if err := batched.WriteBatch(ids, data); err != nil {
			t.Fatal(err)
		}
		if _, err := batched.ReadBatch(ids); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if err := plain.Write(id, data[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if _, err := plain.Read(id); err != nil {
				t.Fatal(err)
			}
		}
		bs, ps := batched.Stats(), plain.Stats()
		if bs != ps {
			t.Fatalf("batched stats %+v diverge from sequential %+v", bs, ps)
		}
		if bs.Batches != 0 || bs.BatchedPages != 0 {
			t.Fatalf("flat batches counted batches: %+v", bs)
		}
	})
}

// TestBatchValidation: a batch whose images do not match its pages in number
// fails before any traffic; a bad page or a short image stops the batch
// there, like a fault — the pages before it are moved and charged as a
// submission of their own, the ones from it on are not.
func TestBatchValidation(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	ids := allocN(t, d, 3, rum.Base)
	good := [][]byte{page64(1), page64(2), page64(3)}
	if err := d.WriteBatch(ids, good[:2]); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	if st := d.Stats(); st != (DeviceStats{PagesAllocated: 3}) {
		t.Fatalf("mismatched batch counted traffic: %+v", st)
	}
	bad := [][]byte{good[0], make([]byte, 10), good[2]}
	if err := d.WriteBatch(ids, bad); err == nil {
		t.Fatal("short image accepted")
	}
	if !bytes.Equal(d.pages[ids[0]], page64(1)) || !bytes.Equal(d.pages[ids[2]], make([]byte, 64)) {
		t.Fatal("a batch stopped at its short image wrote past it, or not up to it")
	}
	pages, err := d.ReadBatch([]PageID{ids[0], 99, ids[2]})
	if !errors.Is(err, ErrBadPage) || len(pages) != 1 {
		t.Fatalf("bad page in batch: %d pages, %v", len(pages), err)
	}
	m := d.CostModel()
	if st := d.Stats(); st.PageReads != 1 || st.PageWrites != 1 || st.CostUnits != m.ReadCost+m.WriteCost || st.Batches != 0 {
		t.Fatalf("stopped batches charged %+v, want one page each way", st)
	}
}

// prefixRig is a device of n pages, page i holding 0x10+i, with its events
// and batch events recorded.
type prefixRig struct {
	d   *Device
	rec *recorder
	ids []PageID
}

func newPrefixRig(t *testing.T, medium Medium, n int) *prefixRig {
	t.Helper()
	r := &prefixRig{d: NewDevice(64, medium, nil), rec: &recorder{}}
	r.ids = allocN(t, r.d, n, rum.Base)
	for i, id := range r.ids {
		copy(r.d.pages[id], page64(byte(0x10+i)))
	}
	r.d.SetHook(r.rec)
	return r
}

// sameLedger requires two rigs to have the same stats, meter, events (kind,
// page, class and cost, in order), batch events and page images.
func (r *prefixRig) sameLedger(t *testing.T, o *prefixRig) {
	t.Helper()
	if r.d.Stats() != o.d.Stats() {
		t.Fatalf("stats %+v, the per-page calls' %+v", r.d.Stats(), o.d.Stats())
	}
	if *r.d.Meter() != *o.d.Meter() {
		t.Fatalf("meter %+v, the per-page calls' %+v", *r.d.Meter(), *o.d.Meter())
	}
	if !slices.Equal(r.rec.events, o.rec.events) || !slices.Equal(r.rec.batches, o.rec.batches) {
		t.Fatalf("events %+v %+v, the per-page calls' %+v %+v", r.rec.events, r.rec.batches, o.rec.events, o.rec.batches)
	}
	for i, id := range r.ids {
		if !bytes.Equal(r.d.pages[id], o.d.pages[id]) {
			t.Fatalf("page %d holds %x, the per-page calls left %x", i, r.d.pages[id], o.d.pages[id])
		}
	}
}

// TestBatchFaultPrefix pins the prefix-of-submission rule of the device's
// kernels: a read or write batch of n pages whose page k fails — plainly, or
// torn on a write — returns k, charges its first k pages as a submission of
// k (BatchCost(k), one batch event when k > 1 on the multi-queue SSD), emits
// their events and then page k's fault event in submission order, tears page
// k's prefix alone and leaves the pages after it untouched. Its twin makes
// the same pages' calls without the failed batch — per-page calls on the
// SSD, a batch of the k reached pages and a single call for page k on the
// MQSSD — and must end with the same stats, meter, events and images.
func TestBatchFaultPrefix(t *testing.T) {
	const n = 6
	for _, medium := range []Medium{SSD, MQSSD} {
		for _, k := range []int{0, 1, 3, n - 1} {
			for _, torn := range []int{0, 24} {
				t.Run(fmt.Sprintf("%v/k=%d/torn=%d", medium, k, torn), func(t *testing.T) {
					batched, twin := newPrefixRig(t, medium, n), newPrefixRig(t, medium, n)
					fault := func() *scriptInjector {
						return &scriptInjector{
							failRead:  map[uint64]error{uint64(k + 1): transient()},
							failWrite: map[uint64]error{uint64(k + 1): permanent()},
							tornAt:    map[uint64]int{uint64(k + 1): torn},
						}
					}
					batched.d.SetInjector(fault())
					twin.d.SetInjector(fault())
					images := func() [][]byte {
						imgs := make([][]byte, n)
						for i := range imgs {
							imgs[i] = page64(byte(0xA0 + i))
						}
						return imgs
					}

					// Reads first, over the images the rigs were built with.
					out := make([][]byte, n)
					got, err := batched.d.readBatchInto(batched.ids, out)
					if got != k || !errors.Is(err, ErrTransient) {
						t.Fatalf("read batch reached %d pages, %v; want %d and the fault", got, err, k)
					}
					for i := range out[:k] {
						if !bytes.Equal(out[i], page64(byte(0x10+i))) {
							t.Fatalf("read batch page %d shows %x", i, out[i])
						}
					}
					if medium == SSD {
						for _, id := range twin.ids[:k] {
							if _, err := twin.d.Read(id); err != nil {
								t.Fatal(err)
							}
						}
					} else if _, err := twin.d.ReadBatch(twin.ids[:k]); err != nil {
						t.Fatal(err)
					}
					if _, err := twin.d.Read(twin.ids[k]); !errors.Is(err, ErrTransient) {
						t.Fatalf("twin's read of page %d: %v", k, err)
					}
					batched.sameLedger(t, twin)

					// Then the write batch.
					imgs := images()
					got, err = batched.d.ReplaceBatch(batched.ids, imgs)
					if got != k || !errors.Is(err, ErrInjected) {
						t.Fatalf("write batch reached %d pages, %v; want %d and the fault", got, err, k)
					}
					if !bytes.Equal(imgs[k], page64(byte(0xA0+k))) {
						t.Fatal("the failed page's image changed hands")
					}
					twinImgs := images()
					if medium == SSD {
						for i, id := range twin.ids[:k] {
							if err := twin.d.Write(id, twinImgs[i]); err != nil {
								t.Fatal(err)
							}
						}
					} else if err := twin.d.WriteBatch(twin.ids[:k], twinImgs[:k]); err != nil {
						t.Fatal(err)
					}
					if err := twin.d.Write(twin.ids[k], twinImgs[k]); !errors.Is(err, ErrInjected) {
						t.Fatalf("twin's write of page %d: %v", k, err)
					}
					batched.sameLedger(t, twin)

					// The ledger itself: k pages each way, charged as one
					// submission of k, then page k's fault.
					m, st := batched.d.CostModel(), batched.d.Stats()
					batches := 0
					if medium == MQSSD && k > 1 {
						batches = 2
					}
					if st.PageReads != uint64(k) || st.PageWrites != uint64(k) ||
						st.CostUnits != m.BatchCost(k, false)+m.BatchCost(k, true) || st.Batches != uint64(batches) {
						t.Fatalf("stats %+v after two batches that failed at page %d", st, k)
					}
					if len(batched.rec.batches) != batches {
						t.Fatalf("batch events %+v", batched.rec.batches)
					}
					var want []Event // k pages, then page k's fault, each way
					for _, ev := range []Event{EvRead, EvWrite} {
						for range k {
							want = append(want, ev)
						}
						fault := EvFault
						if ev == EvWrite && torn > 0 {
							fault = EvTorn
						}
						want = append(want, fault)
					}
					if len(batched.rec.events) != len(want) {
						t.Fatalf("%d events, want %d", len(batched.rec.events), len(want))
					}
					for i, e := range batched.rec.events {
						if e.Ev != want[i] || e.ID != batched.ids[i%(k+1)] {
							t.Fatalf("event %d is %v on page %d; want %v in submission order", i, e.Ev, e.ID, want)
						}
					}
					for i, id := range batched.ids {
						page, want := batched.d.pages[id], page64(byte(0x10+i))
						switch {
						case i < k:
							want = page64(byte(0xA0 + i))
						case i == k:
							copy(want[:torn], page64(byte(0xA0+i)))
						}
						if !bytes.Equal(page, want) {
							t.Fatalf("page %d holds %x, want %x", i, page, want)
						}
					}
				})
			}
		}
	}
}

// TestFetchFailureNotCountedAsMiss is the satellite-1 regression: a fetch
// whose device read fails must count a FetchFailure, not a miss, so hits and
// misses are a statement about served requests only.
func TestFetchFailureNotCountedAsMiss(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	d.SetHook(rec) // the pool's events come through the device's hook
	a := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: permanent()}})
	if _, err := p.Fetch(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("fetch: %v", err)
	}
	st := p.Stats()
	if st.Misses != 0 || st.FetchFailures != 1 {
		t.Fatalf("failed fetch miscounted: %+v", st)
	}
	if got := rec.count(EvMiss); got != 0 {
		t.Fatalf("failed fetch emitted %d EvMiss", got)
	}
	if st.Hits != 0 {
		t.Fatalf("hits after failed fetch: %d", st.Hits)
	}
	// The recovery fetch counts the miss — exactly one, matching exactly one
	// successful device read.
	f, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	st = p.Stats()
	if st.Misses != 1 || st.FetchFailures != 1 {
		t.Fatalf("recovery fetch ledger: %+v", st)
	}
	if d.Stats().PageReads != st.Misses {
		t.Fatalf("misses (%d) diverge from device reads (%d)", st.Misses, d.Stats().PageReads)
	}
}

// TestFailureEventCosts is the satellite-2/3 regression: every injected
// failure routes through one path and its events carry the attempted
// operation's weighted cost — including the torn-write crash, which used to
// emit a hand-rolled EvCrash with cost 0.
func TestFailureEventCosts(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, SSD, nil)
	d.SetHook(rec)
	id := d.Alloc(rum.Base)

	// Clean write fault: one EvFault at write cost.
	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: permanent()}})
	if err := d.Write(id, make([]byte, 64)); err == nil {
		t.Fatal("expected fault")
	}
	if len(rec.events) != 1 || rec.events[0] != (recordedEvent{EvFault, id, rum.Base, 20}) {
		t.Fatalf("write fault events: %+v", rec.events)
	}

	// Torn write without crash: one EvTorn at write cost.
	rec.events = nil
	d.SetInjector(&scriptInjector{
		failWrite: map[uint64]error{1: transient()},
		tornAt:    map[uint64]int{1: 8},
	})
	if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrTransient) {
		t.Fatalf("torn write: %v", err)
	}
	if len(rec.events) != 1 || rec.events[0] != (recordedEvent{EvTorn, id, rum.Base, 20}) {
		t.Fatalf("torn write events: %+v", rec.events)
	}

	// Torn write at a crash point: EvTorn then EvCrash, both at write cost,
	// and the device latches.
	rec.events = nil
	d.SetInjector(&scriptInjector{
		failWrite: map[uint64]error{1: crashErr()},
		tornAt:    map[uint64]int{1: 8},
	})
	if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn crash write: %v", err)
	}
	wantTornCrash := []recordedEvent{
		{EvTorn, id, rum.Base, 20},
		{EvCrash, id, rum.Base, 20},
	}
	if len(rec.events) != 2 || rec.events[0] != wantTornCrash[0] || rec.events[1] != wantTornCrash[1] {
		t.Fatalf("torn crash events: %+v", rec.events)
	}
	if !d.Crashed() {
		t.Fatal("torn crash did not latch the device")
	}
	// No failure counted any traffic.
	if st := d.Stats(); st.PageWrites != 0 || st.CostUnits != 0 {
		t.Fatalf("failures counted traffic: %+v", st)
	}
}

// TestPoolBatchedFlushAll: on a multi-queue device the pool drains dirty
// frames in IOBatch-sized submissions, in LRU order, with the same
// write-back ledger as the per-page path.
func TestPoolBatchedFlushAll(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 16)
	d.SetHook(rec)
	if p.IOBatch() != 8 {
		t.Fatalf("default IOBatch on MQSSD: %d", p.IOBatch())
	}
	var ids []PageID
	for i := 0; i < 12; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		ids = append(ids, f.ID())
		p.Release(f)
	}
	p.FlushAll()
	st := p.Stats()
	if st.WriteBacks != 12 || p.DirtyCount() != 0 {
		t.Fatalf("batched flush ledger: %+v dirty=%d", st, p.DirtyCount())
	}
	// 12 dirty frames drain as one 8-page and one 4-page submission:
	// 1 wave of 20 + 1 wave of 20 = 40 cost units, against 240 per-page.
	if got := d.Stats().CostUnits; got != 40 {
		t.Fatalf("batched flush cost %d, want 40", got)
	}
	if d.Stats().Batches != 2 || d.Stats().BatchedPages != 12 {
		t.Fatalf("batched flush submissions: %+v", d.Stats())
	}
	// Write order is LRU order: oldest page first.
	var order []PageID
	for _, e := range rec.events {
		if e.Ev == EvWrite {
			order = append(order, e.ID)
		}
	}
	if len(order) != 12 {
		t.Fatalf("writes: %d", len(order))
	}
	for i, id := range order {
		if id != ids[i] {
			t.Fatalf("write order %v, want LRU order %v", order, ids)
		}
	}
	// The device image carries the frame contents.
	for i, id := range ids {
		pg, err := d.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if pg[0] != byte(i+1) {
			t.Fatalf("page %d contents %x", id, pg[0])
		}
	}
}

// TestPoolBatchedEvictionGroup: under eviction pressure the pool pre-flushes
// a group of cold dirty frames in one submission, then evicts the strict LRU
// victim.
func TestPoolBatchedEvictionGroup(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 8)
	p.SetIOBatch(4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Release(f)
	}
	// The 9th page forces an eviction: the group flush drains the 4 coldest
	// dirty frames in one batch (1 wave of 20), then evicts ids[0].
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	st := p.Stats()
	if st.Evictions != 1 || st.WriteBacks != 4 {
		t.Fatalf("eviction group ledger: %+v", st)
	}
	if p.lookup(ids[0]) != nil {
		t.Fatal("LRU victim still cached")
	}
	if p.lookup(ids[1]) == nil {
		t.Fatal("eviction group evicted more than the victim")
	}
	if got := d.Stats().CostUnits; got != 20 {
		t.Fatalf("eviction group cost %d, want 20", got)
	}
}

// TestPoolOverflowsAllPinnedBatched: the overflow path is unchanged by
// batched write-back — an all-pinned multi-queue pool still overflows
// rather than evicting, and no batch is submitted for pinned frames.
func TestPoolOverflowsAllPinnedBatched(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 2)
	var frames []*Frame
	for i := 0; i < 5; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if got := p.Stats().Overflows; got != 3 {
		t.Fatalf("overflows: %d", got)
	}
	if d.Stats().PageWrites != 0 || d.Stats().Batches != 0 {
		t.Fatalf("pinned frames were flushed: %+v", d.Stats())
	}
	for _, f := range frames {
		p.Release(f)
	}
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	st := p.Stats()
	if st.Overflows != 3 || st.Evictions == 0 {
		t.Fatalf("post-release ledger: %+v", st)
	}
}

// TestPoolBatchSkipsUnflushableVictim: an eviction group whose victim's
// page is bad fails at its first page. That attempt is the victim's flush
// (a permanent fault is not retried), so it stays cached and dirty; the
// frame after it is written on its own, and eviction moves on to it.
func TestPoolBatchSkipsUnflushableVictim(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 2)
	fa, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	idA := fa.ID()
	p.Release(fa)
	fb, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fb)

	// A's flush fails on every attempt; B's succeeds.
	si := &scriptInjector{badWrite: map[PageID]error{idA: permanent()}}
	d.SetInjector(si)
	c := d.Alloc(rum.Base)
	fc, err := p.Fetch(c)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fc)
	st := p.Stats()
	if st.Evictions != 1 || st.FlushFailures != 1 {
		t.Fatalf("faulted eviction ledger: %+v", st)
	}
	if p.lookup(idA) == nil || !p.lookup(idA).dirty {
		t.Fatal("unflushable frame was dropped or marked clean")
	}
	// The group [A, B] stops at A, then B alone: two attempts, one write.
	if si.writes != 2 || d.Stats().PageWrites != 1 {
		t.Fatalf("%d write attempts, %d writes; want the group's, then B's", si.writes, d.Stats().PageWrites)
	}
}

// TestPoolReadahead: prefetched pages install unpinned and clean, count
// misses matching their device reads, and turn the demand fetches into hits.
func TestPoolReadahead(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 24)
	ids := allocN(t, d, 12, rum.Base)
	for i, id := range ids {
		if err := d.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	base := d.Stats()
	d.SetHook(rec)

	if got := p.Readahead(ids); got != 12 {
		t.Fatalf("readahead installed %d, want 12", got)
	}
	// 12 pages in two submissions (8 + 4): 2 waves of 4 = 8 cost units.
	ds := d.Stats()
	if ds.PageReads-base.PageReads != 12 || ds.CostUnits-base.CostUnits != 8 || ds.Batches-base.Batches != 2 {
		t.Fatalf("readahead device ledger: %+v after %+v", ds, base)
	}
	st := p.Stats()
	if st.Misses != 12 || st.Hits != 0 {
		t.Fatalf("readahead pool ledger: %+v", st)
	}
	if st.Misses != ds.PageReads-base.PageReads {
		t.Fatalf("misses (%d) diverge from device reads (%d)", st.Misses, ds.PageReads-base.PageReads)
	}
	// Demand fetches are now hits, at no further device cost.
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("prefetched page %d contents %x", id, f.Data()[0])
		}
		p.Release(f)
	}
	st = p.Stats()
	if st.Hits != 12 || st.Misses != 12 {
		t.Fatalf("post-fetch ledger: %+v", st)
	}
	if got := d.Stats().PageReads - base.PageReads; got != 12 {
		t.Fatalf("demand fetches re-read the device: %d", got)
	}
	// Already-cached pages are skipped; a second readahead is free.
	if got := p.Readahead(ids); got != 0 {
		t.Fatalf("second readahead installed %d", got)
	}
	// A prefetch is clamped to half the pool: it must never wipe the demand
	// working set.
	sp := NewBufferPool(d, 8)
	if got := sp.Readahead(ids); got != 4 {
		t.Fatalf("half-pool clamp installed %d, want 4", got)
	}
	// Flat media: readahead declines to prefetch at all.
	fd := NewDevice(64, SSD, nil)
	fp := NewBufferPool(fd, 8)
	fids := allocN(t, fd, 4, rum.Base)
	if got := fp.Readahead(fids); got != 0 {
		t.Fatalf("flat-media readahead installed %d", got)
	}
	if fd.Stats().PageReads != 0 {
		t.Fatal("flat-media readahead touched the device")
	}
}

// TestPoolReadaheadRepeatedIDs: a request that names a page more than once
// reads it once. Device reads, installs and misses move together whether the
// repeat is adjacent or far apart, and beside pages already cached.
func TestPoolReadaheadRepeatedIDs(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 40)
	ids := allocN(t, d, 12, rum.Base)
	f, err := p.Fetch(ids[11])
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	for _, tc := range []struct {
		req  []PageID
		want int
	}{
		{[]PageID{ids[0], ids[0], ids[1]}, 2},
		{[]PageID{ids[2], ids[3], ids[2], ids[11], ids[3], ids[2]}, 2},
		{[]PageID{ids[4], ids[5], ids[6], ids[7], ids[8], ids[9], ids[10], ids[4], ids[10], ids[11], ids[9]}, 7},
		{[]PageID{ids[0], ids[1], ids[0]}, 0}, // all cached by now
	} {
		reads, misses := d.Stats().PageReads, p.Stats().Misses
		installed := p.Readahead(tc.req)
		dr, dm := d.Stats().PageReads-reads, p.Stats().Misses-misses
		if installed != tc.want || uint64(installed) != dr || dm != dr {
			t.Fatalf("Readahead(%v): %d installed (want %d), %d misses, %d device reads; all must agree",
				tc.req, installed, tc.want, dm, dr)
		}
	}
	if st := d.Stats(); st.PageReads != 12 || p.Len() != 12 {
		t.Fatalf("12 distinct pages took %d device reads into %d frames", st.PageReads, p.Len())
	}
}

// TestPoolPrefetchAccounting: a page Readahead installed counts one
// PrefetchHit at its first Fetch (a Hit as well) and none after, and one
// PrefetchUnused if it leaves the pool — evicted, freed or dropped — before
// any Fetch. Demand-read pages count in neither.
func TestPoolPrefetchAccounting(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 8)
	ids := allocN(t, d, 12, rum.Base)
	fetch := func(id PageID) {
		t.Helper()
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f)
	}
	want := func(hits, unused uint64) {
		t.Helper()
		if st := p.Stats(); st.PrefetchHits != hits || st.PrefetchUnused != unused {
			t.Fatalf("prefetch hits %d, unused %d; want %d, %d (%+v)", st.PrefetchHits, st.PrefetchUnused, hits, unused, st)
		}
	}
	if got := p.Readahead(ids[:4]); got != 4 {
		t.Fatalf("readahead installed %d, want 4", got)
	}
	want(0, 0)
	fetch(ids[0])
	fetch(ids[0]) // the second Fetch is an ordinary hit
	fetch(ids[1])
	want(2, 0)
	if st := p.Stats(); st.Hits != 3 || st.Misses != 4 {
		t.Fatalf("prefetch hits must count as hits: %+v", st)
	}
	// Demand misses fill the pool: ids[2] and ids[3], never fetched, are the
	// least recently used and go first; ids[0] and ids[1] were fetched.
	for _, id := range ids[4:10] {
		fetch(id)
	}
	want(2, 2)
	if p.Peek(ids[2]) != nil || p.Peek(ids[3]) != nil {
		t.Fatal("the unfetched prefetched pages should have been the victims")
	}
	// Freed before any Fetch.
	if got := p.Readahead(ids[10:11]); got != 1 {
		t.Fatalf("readahead installed %d, want 1", got)
	}
	if err := p.FreePage(ids[10]); err != nil {
		t.Fatal(err)
	}
	want(2, 3)
	// Dropped before any Fetch.
	if got := p.Readahead(ids[11:12]); got != 1 {
		t.Fatalf("readahead installed %d, want 1", got)
	}
	p.DropAll()
	want(2, 4)
	// A demand-read page dropped or evicted counts in neither.
	fetch(ids[0])
	p.DropAll()
	want(2, 4)
	if st := p.Stats(); st.PrefetchHits+st.PrefetchUnused > st.Misses {
		t.Fatalf("more prefetch outcomes than misses: %+v", st)
	}
}
