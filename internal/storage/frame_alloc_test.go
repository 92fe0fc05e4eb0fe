//go:build !racecheck

package storage

import (
	"testing"

	"repro/internal/rum"
)

// missPool returns a 64-frame pool over 256 pages of a multi-queue device,
// already cycled once so every further Fetch in page order is a miss that
// evicts; with dirty set every victim also needs a (grouped) write-back.
// With armed set the device carries a fault injector that never fires.
// next fetches the following page.
func missPool(tb testing.TB, dirty, armed bool) (p *BufferPool, next func()) {
	d := NewDevice(4096, MQSSD, nil)
	ids := make([]PageID, 256)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
	}
	if armed {
		d.SetInjector(&scriptInjector{})
	}
	p = NewBufferPool(d, 64)
	i := 0
	next = func() {
		f, err := p.Fetch(ids[i%len(ids)])
		if err != nil {
			tb.Fatal(err)
		}
		if dirty {
			f.MarkDirty()
		}
		p.Release(f)
		i++
	}
	for range ids {
		next()
	}
	return p, next
}

// TestMissPathDoesNotAllocate pins the steady-state miss at zero
// allocations: the victim's frame is handed to the install, and write-back
// groups and readahead batches live in pool-owned scratch. (The racecheck
// build allocates by design — stack captures and poisoned hand-offs — so
// this file is left out of it.) An armed injector that never fires changes
// nothing: the write-backs still hand their buffers over.
func TestMissPathDoesNotAllocate(t *testing.T) {
	for _, c := range []struct{ dirty, armed bool }{{false, false}, {true, false}, {true, true}} {
		dirty := c.dirty
		p, next := missPool(t, dirty, c.armed)
		before := p.Stats()
		if allocs := testing.AllocsPerRun(512, next); allocs != 0 {
			t.Errorf("%+v: a Fetch miss allocated %v times, want 0", c, allocs)
		}
		st := p.Stats()
		if st.Hits != before.Hits || st.Evictions-before.Evictions != 513 {
			t.Fatalf("%+v: the measured fetches were not all evicting misses: %+v → %+v", c, before, st)
		}
		if dirty && st.WriteBacks-before.WriteBacks < 513 {
			t.Fatalf("the dirty victims were not written back: %+v → %+v", before, st)
		}
		// Every write was one private copy and every write-back moved no
		// bytes; the copies' buffers were the ones the write-backs freed.
		if dirty && (st.Unshares-before.Unshares != 513 || st.Handovers != st.WriteBacks || p.taken != st.Unshares) {
			t.Fatalf("%+v: miss → dirty → evict: %+v → %+v, %d buffers taken", c, before, st, p.taken)
		}
		if !dirty && (st.Unshares != 0 || p.taken != 0 || p.owned+len(p.spare) != 0) {
			t.Fatalf("a clean cycle holds private buffers: %+v, %d taken", st, p.taken)
		}
	}

	p, _ := missPool(t, true, false)
	ids, at := p.Device().LivePageIDs(), 0
	window := func() {
		if n := p.Readahead(ids[at : at+8]); n != 8 {
			t.Fatalf("readahead installed %d of 8 pages", n)
		}
		at = (at + 8) % len(ids)
	}
	if allocs := testing.AllocsPerRun(64, window); allocs != 0 {
		t.Errorf("a Readahead window allocated %v times, want 0", allocs)
	}
}

// TestPublishCycleDoesNotAllocate pins the copy-on-write cycle of an MVCC
// structure at zero allocations: new pages take the buffers and structs the
// previous round's flush and frees left behind.
func TestPublishCycleDoesNotAllocate(t *testing.T) {
	for _, medium := range []Medium{RAM, MQSSD} {
		d := NewDevice(4096, medium, nil)
		p := NewBufferPool(d, 64)
		var born, retired [8]PageID
		cycle := func() {
			for i := range born {
				f, err := p.NewPage(rum.Base)
				if err != nil {
					t.Fatal(err)
				}
				f.MarkDirty()
				f.Data()[0] = 1
				born[i] = f.ID()
				p.Release(f)
			}
			p.FlushAll() // Publish
			for _, id := range retired {
				if err := p.FreePage(id); err != nil {
					t.Fatal(err)
				}
			}
			retired = born
		}
		for i := range retired {
			retired[i] = d.Alloc(rum.Base)
		}
		cycle()
		cycle()
		newPages := uint64(16)
		if allocs := testing.AllocsPerRun(64, cycle); allocs != 0 {
			t.Errorf("%v: a publish cycle allocated %v times, want 0", medium, allocs)
		}
		newPages += 65 * 8
		if st := p.Stats(); st.Handovers != newPages || st.WriteBacks != newPages || st.Unshares != 0 || p.taken != newPages {
			t.Fatalf("%v: %d new pages: %+v, %d buffers taken", medium, newPages, st, p.taken)
		}
	}
}

// TestCleanFrameBorrowsDeviceImage walks one page through the three
// transitions by the identity of its bytes: a fetched frame shows the
// device's slice, MarkDirty moves it to a private copy, and the write-back
// makes that copy the device's image with the frame borrowing it back.
func TestCleanFrameBorrowsDeviceImage(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	id := d.Alloc(rum.Base)
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	was := d.pages[id]
	if &f.Data()[0] != &was[0] || f.owned {
		t.Fatal("a fetched frame does not borrow the device's image")
	}
	f.MarkDirty()
	mine := f.Data()
	if &mine[0] == &was[0] || !f.owned {
		t.Fatal("MarkDirty left the frame writing the device's image")
	}
	mine[0] = 7
	if was[0] != 0 {
		t.Fatal("a frame write reached the device before the write-back")
	}
	p.Release(f)
	p.FlushAll()
	if &d.pages[id][0] != &mine[0] || &f.Data()[0] != &mine[0] || f.owned {
		t.Fatal("the write-back did not hand the frame's buffer over")
	}
	if len(p.spare) != 1 || &p.spare[0][0] != &was[0] {
		t.Fatal("the previous image did not become spare")
	}
}

// BenchmarkFetchMiss measures one evicting Fetch miss on the multi-queue
// device, clean and with a dirty victim to write back — the latter also with
// a fault injector armed that never fires, which takes the same write-back
// path.
func BenchmarkFetchMiss(b *testing.B) {
	for _, c := range []struct {
		name         string
		dirty, armed bool
	}{{"clean", false, false}, {"dirty-evict", true, false}, {"dirty-evict/armed", true, true}} {
		b.Run(c.name, func(b *testing.B) {
			_, next := missPool(b, c.dirty, c.armed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
		})
	}
}

// BenchmarkFetchHit measures the resident hit as a B-tree descent issues it:
// root, one inner page, one leaf, each pinned and released, over a pool that
// holds the whole tree — so the root is a hit on the most recently used side
// of the list and the leaf a relink from deep inside it.
func BenchmarkFetchHit(b *testing.B) {
	d := NewDevice(4096, SSD, nil)
	const inners, leavesPer = 16, 64
	ids := make([]PageID, 1+inners+inners*leavesPer)
	p := NewBufferPool(d, len(ids))
	for i := range ids {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = f.ID()
		p.Release(f)
	}
	hit := func(id PageID) {
		f, err := p.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	x := uint32(1)
	for i := 0; i < b.N; i++ {
		x = x*1664525 + 1013904223 // LCG: a scattered leaf per descent
		leaf := int(x>>8) % (inners * leavesPer)
		hit(ids[0])
		hit(ids[1+leaf/leavesPer])
		hit(ids[1+inners+leaf])
	}
	if st := p.Stats(); st.Misses != 0 {
		b.Fatalf("the descents missed %d times; the pool must hold the whole tree", st.Misses)
	}
}
