//go:build !racecheck

package storage

import (
	"testing"

	"repro/internal/rum"
)

// missPool returns a 64-frame pool over 256 pages of a multi-queue device,
// already cycled once so every further Fetch in page order is a miss that
// evicts; with dirty set every victim also needs a (grouped) write-back.
// next fetches the following page.
func missPool(tb testing.TB, dirty bool) (p *BufferPool, next func()) {
	d := NewDevice(4096, MQSSD, nil)
	ids := make([]PageID, 256)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
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
// this file is left out of it.)
func TestMissPathDoesNotAllocate(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		p, next := missPool(t, dirty)
		before := p.Stats()
		if allocs := testing.AllocsPerRun(512, next); allocs != 0 {
			t.Errorf("dirty=%v: a Fetch miss allocated %v times, want 0", dirty, allocs)
		}
		st := p.Stats()
		if st.Hits != before.Hits || st.Evictions-before.Evictions != 513 {
			t.Fatalf("dirty=%v: the measured fetches were not all evicting misses: %+v → %+v", dirty, before, st)
		}
		if dirty && st.WriteBacks-before.WriteBacks < 513 {
			t.Fatalf("the dirty victims were not written back: %+v → %+v", before, st)
		}
	}

	p, _ := missPool(t, true)
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

// BenchmarkFetchMiss measures one evicting Fetch miss on the multi-queue
// device, clean and with a dirty victim to write back.
func BenchmarkFetchMiss(b *testing.B) {
	for _, c := range []struct {
		name  string
		dirty bool
	}{{"clean", false}, {"dirty-evict", true}} {
		b.Run(c.name, func(b *testing.B) {
			_, next := missPool(b, c.dirty)
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
