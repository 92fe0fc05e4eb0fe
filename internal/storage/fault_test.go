package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rum"
)

// scriptInjector is a test FaultInjector failing exact 1-based operation
// indices. The canonical seed-driven implementation lives in internal/faults
// (which imports this package, so in-package tests script faults locally).
// badWrite fails every write attempt on its pages, a grown media defect.
type scriptInjector struct {
	reads, writes uint64
	failRead      map[uint64]error
	failWrite     map[uint64]error
	tornAt        map[uint64]int
	badWrite      map[PageID]error
}

func (s *scriptInjector) ReadFault(PageID) error {
	s.reads++
	return s.failRead[s.reads]
}

func (s *scriptInjector) WriteFault(id PageID, _ int) (int, error) {
	s.writes++
	if err := s.badWrite[id]; err != nil {
		return s.tornAt[s.writes], err
	}
	return s.tornAt[s.writes], s.failWrite[s.writes]
}

func transient() error { return fmt.Errorf("%w: scripted", ErrTransient) }
func permanent() error { return fmt.Errorf("%w: scripted", ErrInjected) }
func crashErr() error  { return fmt.Errorf("%w: scripted", ErrCrash) }

func TestFaultInjectionRead(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{3: permanent()}})
	for i := 0; i < 2; i++ {
		if _, err := d.Read(id); err != nil {
			t.Fatalf("read %d failed early: %v", i, err)
		}
	}
	if _, err := d.Read(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("third read: %v", err)
	}
	// The failed read must not have counted as traffic.
	if got := d.Stats().PageReads; got != 2 {
		t.Fatalf("failed read counted: %d", got)
	}
	if _, err := d.Read(id); err != nil {
		t.Fatalf("post-fault read: %v", err)
	}
	d.SetInjector(nil)
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
}

func TestFaultInjectionWrite(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: permanent()}})
	if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write: %v", err)
	}
	// The failed write must not have counted as traffic.
	if st := d.Stats(); st.PageWrites != 0 || st.CostUnits != 0 {
		t.Fatalf("failed write counted: %+v", st)
	}
}

// TestFreeRetiresPermanentlyFailedPage: a page a write failed on
// permanently (faults.Plan.WriteFailAt's kind of fault, scripted here at the
// first write) is retired. Free counts it freed and not live but keeps it off
// the free list, so the next Alloc returns another id. A page a transient or
// crash fault hit is sound, and Alloc hands it out again.
func TestFreeRetiresPermanentlyFailedPage(t *testing.T) {
	for _, c := range []struct {
		name    string
		fault   error
		retired bool
	}{
		{"permanent", permanent(), true},
		{"transient", transient(), false},
		{"crash", crashErr(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDevice(64, SSD, nil)
			keep, id := d.Alloc(rum.Base), d.Alloc(rum.Base)
			d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: c.fault}})
			if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrInjected) && !errors.Is(err, ErrCrash) {
				t.Fatalf("write: %v", err)
			}
			d.Reopen()
			if err := d.Free(id); err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.PagesFreed != 1 || d.LivePages() != 1 || !slices.Equal(d.LivePageIDs(), []PageID{keep}) {
				t.Fatalf("freed page still counted: %+v, live %v", st, d.LivePageIDs())
			}
			next := d.Alloc(rum.Base)
			if reused := next == id; reused == c.retired {
				t.Fatalf("Alloc after freeing page %d returned %d: retired %v", id, next, c.retired)
			}
			if err := d.Write(next, make([]byte, 64)); err != nil {
				t.Fatalf("write to the page Alloc returned: %v", err)
			}
		})
	}
}

func TestPoolSurvivesReadFault(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	a := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: permanent()}})
	if _, err := p.Fetch(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("fetch: %v", err)
	}
	// The pool must not cache a frame for the failed fetch.
	if p.Len() != 0 {
		t.Fatalf("pool cached a failed frame: %d", p.Len())
	}
	// And must recover on the next attempt.
	f, err := p.Fetch(a)
	if err != nil {
		t.Fatalf("recovery fetch: %v", err)
	}
	p.Release(f)
}

// TestTornWrite: a torn write persists exactly the reported prefix of the
// new image, leaves the rest of the old image intact, and counts no traffic.
func TestTornWrite(t *testing.T) {
	d := NewDevice(64, SSD, nil)
	id := d.Alloc(rum.Base)
	old := bytes.Repeat([]byte{0xAA}, 64)
	if err := d.Write(id, old); err != nil {
		t.Fatal(err)
	}
	writesBefore := d.Stats().PageWrites
	d.SetInjector(&scriptInjector{
		failWrite: map[uint64]error{1: transient()},
		tornAt:    map[uint64]int{1: 16},
	})
	fresh := bytes.Repeat([]byte{0xBB}, 64)
	err := d.Write(id, fresh)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("torn write error: %v", err)
	}
	if got := d.Stats().PageWrites; got != writesBefore {
		t.Fatalf("torn write counted as traffic: %d", got)
	}
	d.SetInjector(nil)
	data, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:16], fresh[:16]) || !bytes.Equal(data[16:], old[16:]) {
		t.Fatalf("torn page: %x", data)
	}
}

// TestTornWriteOnUnwrittenPage: a torn write on a recycled page no write has
// reached lands its prefix on zeros, not on the freed page's bytes.
func TestTornWriteOnUnwrittenPage(t *testing.T) {
	d := NewDevice(64, SSD, nil)
	id := recycled(t, d)
	d.SetInjector(&scriptInjector{
		failWrite: map[uint64]error{1: transient()},
		tornAt:    map[uint64]int{1: 16},
	})
	fresh := bytes.Repeat([]byte{0xBB}, 64)
	if err := d.Write(id, fresh); !errors.Is(err, ErrTransient) {
		t.Fatalf("torn write error: %v", err)
	}
	d.SetInjector(nil)
	data, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:16], fresh[:16]) || !bytes.Equal(data[16:], make([]byte, 48)) {
		t.Fatalf("torn recycled page: %x", data)
	}
}

// TestUnwrittenPageSurvivesCrash: a recycled page that was allocated but never
// written — its only image a dirty frame the crash dropped — reads as zeros
// after Reopen, where recovery scanning the live pages would look at it.
func TestUnwrittenPageSurvivesCrash(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := recycled(t, d)
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	p := NewBufferPool(d, 4)
	f, err := p.NewPageForOverwrite(rum.Base)
	if err != nil || f.ID() != id {
		t.Fatalf("NewPageForOverwrite: page %d, %v; want the recycled %d", f.ID(), err, id)
	}
	f.MarkDirty()
	copy(f.Data(), bytes.Repeat([]byte{0xCC}, 64))
	other := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: crashErr()}})
	if err := d.Write(other, make([]byte, 64)); !errors.Is(err, ErrCrash) {
		t.Fatalf("crash write: %v", err)
	}
	p.Crash()
	d.SetInjector(nil)
	d.Reopen()
	if !slices.Contains(d.LivePageIDs(), id) {
		t.Fatalf("page %d is not live after the crash", id)
	}
	if data, err := d.Read(id); err != nil || !bytes.Equal(data, make([]byte, 64)) {
		t.Fatalf("unwritten page after Reopen: %x, %v", data, err)
	}
}

// TestCrashLatch: a crash fault latches the device — reads, writes, and
// frees all fail with ErrCrash until Reopen; Alloc stays available.
func TestCrashLatch(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: crashErr()}})
	if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrCrash) {
		t.Fatalf("crash write: %v", err)
	}
	if !d.Crashed() {
		t.Fatal("device not latched after crash")
	}
	if _, err := d.Read(id); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash read: %v", err)
	}
	if err := d.Write(id, make([]byte, 64)); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := d.Free(id); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash free: %v", err)
	}
	// Recovery may allocate; orphans are its problem to collect.
	_ = d.Alloc(rum.Aux)
	d.SetInjector(nil)
	d.Reopen()
	if d.Crashed() {
		t.Fatal("Reopen did not clear the latch")
	}
	if _, err := d.Read(id); err != nil {
		t.Fatalf("post-reopen read: %v", err)
	}
}

// TestRetryBudget: transient faults are retried up to the budget and the
// operation succeeds once the injector relents.
func TestRetryBudget(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	a := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: transient(), 2: transient()}})
	p.SetRetryBudget(2)
	f, err := p.Fetch(a)
	if err != nil {
		t.Fatalf("fetch within budget: %v", err)
	}
	p.Release(f)
	st := p.Stats()
	if st.Retries != 2 || st.RetryFailures != 0 {
		t.Fatalf("retry ledger: %+v", st)
	}
}

// TestRetryBudgetExhaustion: a fault outlasting the budget surfaces, counts
// a RetryFailure, and permanent faults consume no retries at all.
func TestRetryBudgetExhaustion(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	a := d.Alloc(rum.Base)
	si := &scriptInjector{failRead: map[uint64]error{
		1: transient(), 2: transient(), 3: transient(),
		4: permanent(),
	}}
	d.SetInjector(si)
	p.SetRetryBudget(2)
	if _, err := p.Fetch(a); !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted fetch: %v", err)
	}
	st := p.Stats()
	if st.Retries != 2 || st.RetryFailures != 1 {
		t.Fatalf("retry ledger: %+v", st)
	}
	// Attempt 4 fails permanently: no retry spent on it.
	if _, err := p.Fetch(a); !errors.Is(err, ErrInjected) || errors.Is(err, ErrTransient) {
		t.Fatalf("permanent fetch: %v", err)
	}
	if got := p.Stats().Retries; got != 2 {
		t.Fatalf("permanent fault consumed retries: %d", got)
	}
}

// TestFlushFailureKeepsFrameDirty: a write-back that fails must not drop the
// acknowledged contents — the frame stays cached and dirty, and succeeds
// once the device recovers.
func TestFlushFailureKeepsFrameDirty(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	copy(f.Data(), bytes.Repeat([]byte{7}, 64))
	f.MarkDirty()
	p.Release(f)

	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{1: permanent()}})
	p.FlushAll()
	st := p.Stats()
	if st.FlushFailures != 1 {
		t.Fatalf("flush failures: %+v", st)
	}
	if p.DirtyCount() != 1 {
		t.Fatalf("dirty after failed flush: %d", p.DirtyCount())
	}
	// Second flush succeeds (fault was one-shot) and the data lands.
	p.FlushAll()
	if p.DirtyCount() != 0 {
		t.Fatalf("dirty after recovery flush: %d", p.DirtyCount())
	}
	d.SetInjector(nil)
	data, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 7 {
		t.Fatalf("flushed contents lost: %x", data[0])
	}
}

// TestEvictionSkipsUnflushableFrame: with one frame unflushable, eviction
// moves on to another victim rather than dropping dirty data.
func TestEvictionSkipsUnflushableFrame(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	// Frame A: dirty, and its flush will fail on every write attempt.
	fa, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	copy(fa.Data(), bytes.Repeat([]byte{1}, 64))
	fa.MarkDirty()
	idA := fa.ID()
	p.Release(fa)
	// Frame B: clean (freshly flushed).
	fb, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	idB := fb.ID()
	p.Release(fb)

	si := &scriptInjector{failWrite: map[uint64]error{}}
	for i := uint64(1); i <= 16; i++ {
		si.failWrite[i] = permanent()
	}
	d.SetInjector(si)
	p.FlushAll() // A fails, B fails — both dirty? B was dirty from NewPage too.
	// Force an install: the pool must evict something, and it cannot be a
	// frame whose flush fails.
	c := d.Alloc(rum.Base)
	d.SetInjector(&scriptInjector{failWrite: map[uint64]error{}, failRead: map[uint64]error{}})
	// A and B are both dirty and now flushable; eviction picks the LRU one.
	fc, err := p.Fetch(c)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fc)
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions: %+v", p.Stats())
	}
	_ = idA
	_ = idB
}

// TestStuckFrameIsLastResort: a dirty frame whose page cannot be written is
// attempted once by eviction and then passed over, as a victim and as a
// member of another victim's group, so the batched write-back groups keep
// forming around it. FlushAll still attempts it, and so does eviction once
// nothing else can be evicted. When the page can be written again FlushAll
// writes it, and the frame is an ordinary victim.
func TestStuckFrameIsLastResort(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 4)
	newPages := func(n int) (ids []PageID) {
		for i := 0; i < n; i++ {
			f, err := p.NewPage(rum.Base)
			if err != nil {
				t.Fatal(err)
			}
			fill(f, byte(i+1))
			ids = append(ids, f.ID())
			p.Release(f)
		}
		return ids
	}
	bad := newPages(1)[0]
	si := &scriptInjector{badWrite: map[PageID]error{bad: permanent()}}
	d.SetInjector(si)
	failed := func() uint64 { return si.writes - d.Stats().PageWrites }

	newPages(4) // the fourth evicts: the group [bad, 1, 2, 3] stops at bad
	if f := p.lookup(bad); failed() != 1 || f == nil || !f.dirty || !f.stuck {
		t.Fatalf("%d failed attempts, frame %+v: want one, leaving the frame cached, dirty and stuck", failed(), f)
	}
	before := d.Stats()
	newPages(30)
	ds := d.Stats()
	if failed() != 1 || p.Stats().FlushFailures != 1 || p.lookup(bad) == nil {
		t.Fatalf("eviction attempted the bad page %d times (%+v), want once", failed(), p.Stats())
	}
	if ds.Batches == before.Batches || ds.BatchedPages-before.BatchedPages != ds.PageWrites-before.PageWrites {
		t.Fatalf("write-backs beside the stuck frame: %+v after %+v, want every page in a batch", ds, before)
	}

	p.FlushAll()
	if failed() != 2 || p.DirtyCount() != 1 || !p.lookup(bad).stuck {
		t.Fatalf("FlushAll: %d failed attempts, %d dirty; want the bad page attempted and left dirty", failed(), p.DirtyCount())
	}
	// Every other frame pinned: the stuck one is the last resort, and fails.
	var pinned []*Frame
	for f := p.lru.next; f != &p.lru; f = f.next {
		if f.id != bad {
			f.pins++
			pinned = append(pinned, f)
		}
	}
	newPages(1)
	if failed() != 3 || p.Stats().Overflows != 1 {
		t.Fatalf("%d failed attempts, %+v: want the stuck frame tried, then an overflow", failed(), p.Stats())
	}
	for _, f := range pinned {
		p.Release(f)
	}

	d.SetInjector(nil)
	p.FlushAll()
	if f := p.lookup(bad); p.DirtyCount() != 0 || f.dirty || f.stuck || !bytes.Equal(d.pages[bad], page64(1)) {
		t.Fatalf("disarmed FlushAll left %d dirty, frame stuck %v, page %x", p.DirtyCount(), f.stuck, d.pages[bad])
	}
	newPages(1)
	if p.lookup(bad) != nil {
		t.Fatal("the written frame, least recently used, was not the next victim")
	}
}

// TestPoolCrashDropsEverything: Crash empties the pool without any device
// write, modelling the loss of volatile state.
func TestPoolCrashDropsEverything(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	for i := 0; i < 3; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data(), bytes.Repeat([]byte{byte(i + 1)}, 64))
		f.MarkDirty()
		p.Release(f)
	}
	writes := d.Stats().PageWrites
	p.Crash()
	if p.Len() != 0 || p.DirtyCount() != 0 {
		t.Fatalf("pool after crash: len=%d dirty=%d", p.Len(), p.DirtyCount())
	}
	if d.Stats().PageWrites != writes {
		t.Fatal("Crash wrote to the device")
	}
}
