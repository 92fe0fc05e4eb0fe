package storage

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rum"
)

// recordedEvent is one captured hook emission.
type recordedEvent struct {
	Ev    Event
	ID    PageID
	Class rum.Class
	Cost  uint64
}

// recordedBatch is one captured batch submission.
type recordedBatch struct {
	Write bool
	Pages int
	Depth int
	Cost  uint64
}

// recorder is a test Hook capturing every event and batch in order.
type recorder struct {
	events  []recordedEvent
	batches []recordedBatch
}

func (r *recorder) StorageEvent(ev Event, id PageID, class rum.Class, cost uint64) {
	r.events = append(r.events, recordedEvent{ev, id, class, cost})
}

func (r *recorder) StorageBatch(write bool, pages, depth int, cost uint64) {
	r.batches = append(r.batches, recordedBatch{write, pages, depth, cost})
}

func (r *recorder) count(ev Event) int {
	n := 0
	for _, e := range r.events {
		if e.Ev == ev {
			n++
		}
	}
	return n
}

func TestDeviceHookEvents(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, SSD, nil)
	d.SetHook(rec)
	base := d.Alloc(rum.Base)
	aux := d.Alloc(rum.Aux)

	if _, err := d.Read(base); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(aux, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Replace(base, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	want := []recordedEvent{
		{EvRead, base, rum.Base, 4},   // SSD read cost
		{EvWrite, aux, rum.Aux, 20},   // SSD write cost
		{EvWrite, base, rum.Base, 20}, // a handed-over image costs the same
	}
	if len(rec.events) != len(want) {
		t.Fatalf("events: got %v want %v", rec.events, want)
	}
	for i, e := range rec.events {
		if e != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, e, want[i])
		}
	}

	// A failed (injected) read emits an EvFault event instead of an EvRead.
	// The event carries the attempted operation's weighted cost (the SSD
	// read cost here) even though the failed transfer counts no traffic in
	// stats or the meter — the event is the failure's only cost trace.
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: permanent()}})
	before := len(rec.events)
	if _, err := d.Read(base); err == nil {
		t.Fatal("expected injected fault")
	}
	if len(rec.events) != before+1 {
		t.Fatalf("failed read emitted %d events, want 1", len(rec.events)-before)
	}
	if e := rec.events[before]; e.Ev != EvFault || e.ID != base || e.Cost != 4 {
		t.Fatalf("fault event: %+v", e)
	}
	if st := d.Stats(); st.PageReads != 1 || st.CostUnits != 44 {
		t.Fatalf("failed read counted traffic: %+v", st)
	}
	before = len(rec.events)
	d.SetInjector(nil)

	// Detaching stops emissions.
	d.SetHook(nil)
	if _, err := d.Read(base); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != before {
		t.Fatal("detached hook still received events")
	}
}

func TestPoolHookEvents(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 1)
	d.SetHook(rec) // the pool's events come through the device's hook
	a := d.Alloc(rum.Base)
	b := d.Alloc(rum.Aux)

	f, _ := p.Fetch(a) // miss
	p.Release(f)
	f, _ = p.Fetch(a) // hit
	p.Release(f)
	f, _ = p.Fetch(a) // hit again
	f.MarkDirty()
	copy(f.Data(), bytes.Repeat([]byte{1}, 64))
	p.Release(f)
	f, _ = p.Fetch(b) // miss; evicts dirty a → writeback + eviction
	p.Release(f)

	if got := rec.count(EvMiss); got != 2 {
		t.Fatalf("misses: %d", got)
	}
	if got := rec.count(EvHit); got != 2 {
		t.Fatalf("hits: %d", got)
	}
	if got := rec.count(EvWriteBack); got != 1 {
		t.Fatalf("writebacks: %d", got)
	}
	if got := rec.count(EvEvict); got != 1 {
		t.Fatalf("evictions: %d", got)
	}
	// Hook counts must agree with PoolStats.
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.WriteBacks != 1 {
		t.Fatalf("stats diverge from hook: %+v", st)
	}
	// Hit events carry the page's class and zero cost.
	for _, e := range rec.events {
		if e.Ev == EvHit && (e.Class != rum.Base || e.Cost != 0) {
			t.Fatalf("hit event: %+v", e)
		}
	}
}

func TestEventString(t *testing.T) {
	names := map[Event]string{
		EvRead: "read", EvWrite: "write", EvHit: "hit", EvMiss: "miss",
		EvEvict: "eviction", EvWriteBack: "writeback",
		EvFault: "fault", EvTorn: "torn", EvCrash: "crash", EvRetry: "retry",
		Event(99): "unknown",
	}
	for ev, want := range names {
		if got := ev.String(); got != want {
			t.Fatalf("Event(%d).String() = %q, want %q", ev, got, want)
		}
	}
}

// TestPoolStatsEvictionWriteBackCounts drives a capacity-2 pool through a
// scan of 6 pages, half of them dirtied, and checks the exact eviction and
// write-back ledger.
func TestPoolStatsEvictionWriteBackCounts(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	ids := make([]PageID, 6)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
	}
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			f.MarkDirty()
			f.Data()[0] = byte(i + 1)
		}
		p.Release(f)
	}
	st := p.Stats()
	// 6 distinct pages through 2 frames: 6 misses, 0 hits, 4 evictions
	// (the last 2 frames stay resident), and write-backs only for the dirty
	// evicted pages (ids 0, 2; id 4 is still cached dirty).
	if st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("hit/miss: %+v", st)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions: %d", st.Evictions)
	}
	if st.WriteBacks != 2 {
		t.Fatalf("writebacks: %d", st.WriteBacks)
	}
	p.FlushAll()
	if got := p.Stats().WriteBacks; got != 3 {
		t.Fatalf("writebacks after flush: %d", got)
	}
}

// TestPoolStatsOverflowsAllPinned pins more frames than the pool holds and
// checks every extra frame is an overflow, then verifies the pool drains
// back under capacity once pins are released.
func TestPoolStatsOverflowsAllPinned(t *testing.T) {
	d := NewDevice(64, RAM, nil)
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
	if p.Len() != 5 {
		t.Fatalf("len with pins: %d", p.Len())
	}
	for _, f := range frames {
		p.Release(f)
	}
	// With pins gone, the next install can evict instead of overflowing.
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if got := p.Stats().Overflows; got != 3 {
		t.Fatalf("overflow after release: %d", got)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("expected an eviction once pins were released")
	}
}

// sequence is a test Hook logging page events and batches as one list.
type sequence []string

func (s *sequence) StorageEvent(ev Event, id PageID, _ rum.Class, cost uint64) {
	*s = append(*s, fmt.Sprintf("%v %d cost=%d", ev, id, cost))
}

func (s *sequence) StorageBatch(write bool, pages, depth int, cost uint64) {
	*s = append(*s, fmt.Sprintf("batch write=%v pages=%d depth=%d cost=%d", write, pages, depth, cost))
}

// TestOneHookSeesPoolAndDevice drives a 4-frame MQSSD pool through a miss, a
// hit, a readahead, a fetch that retries a transient read fault and whose
// install evicts a dirty victim in a batched write-back, and a prefetch hit.
// Every event reaches the device's hook as one sequence: the order a pool
// hook and a device hook, both set to one recorder, used to receive them.
func TestOneHookSeesPoolAndDevice(t *testing.T) {
	var got sequence
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 4)
	d.SetHook(&got)
	ids := allocN(t, d, 5, rum.Base)
	a, b, c, e := ids[0], ids[1], ids[2], ids[4]

	dirty := func(id PageID) {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Data()[0] = byte(id + 1)
		p.Release(f)
	}
	dirty(a) // miss
	dirty(a) // hit
	dirty(b) // miss
	if n := p.Readahead(ids[2:4]); n != 2 {
		t.Fatalf("readahead installed %d pages, want 2", n)
	}
	p.SetRetryBudget(1)
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: transient()}})
	f, err := p.Fetch(e) // fault, retry, miss; evicts a, with b in its group
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if f, err = p.Fetch(c); err != nil { // a prefetch hit
		t.Fatal(err)
	}
	p.Release(f)

	want := []string{
		"read 0 cost=4", "miss 0 cost=0",
		"hit 0 cost=0",
		"read 1 cost=4", "miss 1 cost=0",
		"read 2 cost=2", "read 3 cost=2", "batch write=false pages=2 depth=2 cost=4", "miss 2 cost=0", "miss 3 cost=0",
		"fault 4 cost=4", "retry 4 cost=0", "read 4 cost=4", "miss 4 cost=0",
		"write 0 cost=10", "write 1 cost=10", "batch write=true pages=2 depth=2 cost=20",
		"writeback 0 cost=0", "writeback 1 cost=0", "eviction 0 cost=0",
		"hit 2 cost=0",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("one hook saw\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if st := p.Stats(); st.Hits != 2 || st.Misses != 5 || st.Retries != 1 || st.WriteBacks != 2 || st.Evictions != 1 || st.PrefetchHits != 1 {
		t.Fatalf("pool ledger behind the sequence: %+v", st)
	}
}
