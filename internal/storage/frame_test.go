package storage

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/rum"
)

// checkLRU walks the intrusive list in both directions and requires it to
// hold exactly the cached frames, each linked consistently, as many of them
// dirty as the pool's count says.
func checkLRU(t *testing.T, p *BufferPool) {
	t.Helper()
	forward, dirty := 0, 0
	for f := p.lru.next; f != &p.lru; f = f.next {
		if f.next.prev != f || f.prev.next != f {
			t.Fatalf("frame %d: broken links", f.id)
		}
		if f.dirty {
			dirty++
		}
		if p.lookup(f.id) != f {
			t.Fatalf("frame %d is on the list but not the cached frame for its page", f.id)
		}
		if forward++; forward > p.Len() {
			t.Fatalf("forward walk passed %d frames, pool caches %d", forward, p.Len())
		}
	}
	backward := 0
	for f := p.lru.prev; f != &p.lru; f = f.prev {
		if backward++; backward > p.Len() {
			t.Fatalf("backward walk passed %d frames, pool caches %d", backward, p.Len())
		}
	}
	if dirty != p.DirtyCount() {
		t.Fatalf("list holds %d dirty frames, DirtyCount() = %d", dirty, p.DirtyCount())
	}
	if forward != p.Len() || backward != p.Len() {
		t.Fatalf("list holds %d forward / %d backward frames, Len() = %d", forward, backward, p.Len())
	}
	slots := 0
	for _, f := range p.frames {
		if f != nil {
			slots++
		}
	}
	if slots != p.Len() {
		t.Fatalf("page table holds %d frames, Len() = %d", slots, p.Len())
	}
}

// fill marks the frame dirty and writes b over its page.
func fill(f *Frame, b byte) {
	f.MarkDirty()
	for i := range f.Data() {
		f.Data()[i] = b
	}
}

func TestNewPageOnRecycledFrameIsZeroed(t *testing.T) {
	for _, medium := range []Medium{RAM, MQSSD} {
		d := NewDevice(64, medium, nil)
		p := NewBufferPool(d, 2)
		var ids []PageID
		for i := 0; i < 6; i++ {
			f, err := p.NewPage(rum.Base)
			if err != nil {
				t.Fatal(err)
			}
			// From the third page on the frame is an eviction victim's.
			if !bytes.Equal(f.Data(), make([]byte, 64)) {
				t.Fatalf("%v: NewPage %d returned a non-zero buffer: %x", medium, i, f.Data())
			}
			fill(f, byte(0xA0+i))
			ids = append(ids, f.ID())
			p.Release(f)
			checkLRU(t, p)
		}
		if p.Len() != 2 || p.Stats().Evictions != 4 {
			t.Fatalf("%v: %d frames cached after %d evictions, want 2 after 4", medium, p.Len(), p.Stats().Evictions)
		}
		// Recycling a dirty victim's buffer must not lose the victim's bytes,
		// and a Fetch into a recycled buffer must show the whole page.
		for i, id := range ids {
			f, err := p.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.Data(), bytes.Repeat([]byte{byte(0xA0 + i)}, 64)) {
				t.Fatalf("%v: page %d read back %x", medium, id, f.Data())
			}
			p.Release(f)
		}
	}
}

func TestPinnedFrameNeverRecycled(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 2)
	held, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	fill(held, 0x11)
	heldID, heldData := held.ID(), held.Data()

	// Churn the other slot: every install evicts, never the pinned frame.
	for i := 0; i < 8; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		if f == held {
			t.Fatalf("install %d was handed the pinned frame", i)
		}
		fill(f, 0x22)
		p.Release(f)
	}
	if held.ID() != heldID || &held.Data()[0] != &heldData[0] || !bytes.Equal(heldData, bytes.Repeat([]byte{0x11}, 64)) {
		t.Fatalf("pinned frame disturbed: id %d→%d data %x", heldID, held.ID(), held.Data())
	}
	if st := p.Stats(); st.Overflows != 0 || st.Evictions != 7 {
		t.Fatalf("churn beside a pinned frame: %+v", st)
	}

	// Everything pinned: the pool overflows with a fresh frame instead of
	// failing, and no resident frame is touched.
	other, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	if extra == held || extra == other || p.Stats().Overflows != 1 || p.Len() != 3 {
		t.Fatalf("all-pinned install: overflows %d, len %d", p.Stats().Overflows, p.Len())
	}
	if n := p.Readahead([]PageID{d.Alloc(rum.Base), d.Alloc(rum.Base)}); n != 0 {
		t.Fatalf("readahead installed %d pages into an all-pinned pool", n)
	}
	checkLRU(t, p)
	for _, f := range []*Frame{held, other, extra} {
		p.Release(f)
	}
	// Back under pressure the overflowed pool evicts one frame per install.
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if p.Len() != 3 {
		t.Fatalf("len %d after an install into the overflowed pool, want 3", p.Len())
	}
	checkLRU(t, p)
}

func TestLRUConsistentAcrossDropAllFreePageCrash(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 8)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		fill(f, byte(i))
		ids = append(ids, f.ID())
		p.Release(f)
	}
	checkLRU(t, p)

	// FreePage unlinks from the middle, the front and the back.
	for _, id := range []PageID{ids[3], ids[7], ids[0]} {
		if err := p.FreePage(id); err != nil {
			t.Fatal(err)
		}
		checkLRU(t, p)
	}
	if p.Len() != 5 {
		t.Fatalf("len %d after three frees", p.Len())
	}

	// DropAll keeps the pinned frame and drops the rest.
	pinned, err := p.Fetch(ids[4])
	if err != nil {
		t.Fatal(err)
	}
	p.DropAll()
	checkLRU(t, p)
	if p.Len() != 1 || p.lru.next != pinned {
		t.Fatalf("DropAll left %d frames", p.Len())
	}
	p.Release(pinned)
	for _, id := range []PageID{ids[1], ids[2], ids[5]} { // refill after the drop
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f)
		checkLRU(t, p)
	}

	p.Crash()
	checkLRU(t, p)
	if p.Len() != 0 {
		t.Fatalf("len %d after Crash", p.Len())
	}
	f, err := p.Fetch(ids[1]) // the emptied pool installs again
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	checkLRU(t, p)
}

// TestFrameIsOneCacheLine: the resident hit relinks three frames on the LRU
// list, so a frame that straddles cache lines shows on point-cached.
func TestFrameIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 64 {
		t.Fatalf("Frame is %d bytes, want at most 64", size)
	}
}
