//go:build racecheck

package storage

import (
	"bytes"
	"testing"

	"repro/internal/rum"
)

// TestRecycledFrameIsPoisoned verifies the racecheck build makes a read of
// Data() after Release fail loudly once the frame has been evicted: the
// buffer the caller kept is all 0xDB, and the page installed by the evicting
// miss lives in a different frame.
func TestRecycledFrameIsPoisoned(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 1)
	a, b := d.Alloc(rum.Base), d.Alloc(rum.Base)

	stale, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	kept := stale.Data()
	p.Release(stale)

	f, err := p.Fetch(b) // evicts a
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(f)
	if f == stale {
		t.Fatal("racecheck build recycled the victim's frame")
	}
	poison := bytes.Repeat([]byte{poisonByte}, 64)
	if !bytes.Equal(kept, poison) || !bytes.Equal(stale.data, poison) {
		t.Fatalf("evicted frame not poisoned: kept %x", kept)
	}
	if !bytes.Equal(f.Data(), make([]byte, 64)) {
		t.Fatalf("installed page shows %x, want its own zero bytes", f.Data())
	}
}

// TestOverwritePageIsPoisoned verifies the racecheck build hands a
// NewPageForOverwrite caller a buffer of poisonByte in every byte — a fresh
// buffer, which would otherwise be zeros, and a spare one a freed page left
// its bytes in alike — so a byte the caller forgets to write reaches the
// device as 0xDB, where a pinned image or a decoder notices it.
func TestOverwritePageIsPoisoned(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	poison := bytes.Repeat([]byte{poisonByte}, 64)
	f, err := p.NewPageForOverwrite(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data(), poison) {
		t.Fatalf("fresh overwrite frame shows %x, want all %#x", f.Data(), poisonByte)
	}
	f.MarkDirty()
	copy(f.Data(), bytes.Repeat([]byte{0x11}, 64))
	id := f.ID()
	p.Release(f)
	if err := p.FreePage(id); err != nil { // its buffer goes to the spare list
		t.Fatal(err)
	}
	if f, err = p.NewPageForOverwrite(rum.Base); err != nil {
		t.Fatal(err)
	}
	defer p.Release(f)
	if f.ID() != id || !bytes.Equal(f.Data(), poison) {
		t.Fatalf("recycled overwrite frame of page %d shows %x, want page %d all %#x", f.ID(), f.Data(), id, poisonByte)
	}
	z, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(z)
	if !bytes.Equal(z.Data(), make([]byte, 64)) {
		t.Fatalf("NewPage beside it shows %x, want zeros", z.Data())
	}
}

// TestDataAfterReleasePanics verifies the racecheck build fails a read of
// Data() through a frame its caller has released, on first use: the page is
// still cached and its bytes are intact, so nothing but the pin count can
// tell the stale read from a good one.
func TestDataAfterReleasePanics(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	f, err := p.Fetch(d.Alloc(rum.Base))
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("Data() after Release did not panic")
		}
	}()
	f.Data()
}

// TestAdoptOverCachedFramePanics verifies the racecheck build refuses to
// install a page over a frame still cached for its id: the page was freed
// with Device.Free behind the pool's back and the device's free list handed
// the id out again.
func TestAdoptOverCachedFramePanics(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	p.Release(f)
	if err := d.Free(id); err != nil { // not p.FreePage: the frame stays cached
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPage reused the id of a still-cached frame without panicking")
		}
	}()
	p.NewPage(rum.Base) // the free list returns id
}

// TestWriteBeforeMarkDirtyPanics verifies the racecheck build fails a caller
// that writes a fetched frame's Data() while the frame is clean: a release
// build would have changed the device's image with no write charged. Without
// MarkDirty the write is found when the frame is released; with MarkDirty
// after the write instead of before it, at MarkDirty.
func TestWriteBeforeMarkDirtyPanics(t *testing.T) {
	for name, misuse := range map[string]func(p *BufferPool, f *Frame){
		"never marked": func(p *BufferPool, f *Frame) {
			f.Data()[0] = 1
			p.Release(f)
		},
		"marked after": func(p *BufferPool, f *Frame) {
			f.Data()[0] = 1
			f.MarkDirty()
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := NewDevice(64, RAM, nil)
			p := NewBufferPool(d, 2)
			f, err := p.Fetch(d.Alloc(rum.Base))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("a write to a clean frame went unnoticed")
				}
				if img := d.pages[f.ID()]; !bytes.Equal(img, make([]byte, 64)) {
					t.Fatalf("the write reached the device: %x", img)
				}
			}()
			misuse(p, f)
		})
	}

	// The discipline itself passes: mark, then write what Data returns.
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	f, _ := p.Fetch(d.Alloc(rum.Base))
	f.MarkDirty()
	f.Data()[0] = 1
	p.Release(f)
	p.FlushAll()
	if d.pages[f.ID()][0] != 1 {
		t.Fatal("a marked write was lost")
	}
}
