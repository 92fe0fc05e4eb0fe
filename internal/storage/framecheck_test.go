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
	if !bytes.Equal(kept, poison) || !bytes.Equal(stale.Data(), poison) {
		t.Fatalf("evicted frame not poisoned: kept %x", kept)
	}
	if !bytes.Equal(f.Data(), make([]byte, 64)) {
		t.Fatalf("installed page shows %x, want its own zero bytes", f.Data())
	}
}
