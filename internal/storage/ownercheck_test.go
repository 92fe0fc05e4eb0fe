//go:build racecheck

package storage

import (
	"testing"

	"repro/internal/rum"
)

// TestOwnercheckCrossGoroutine verifies the racecheck build turns cross-
// goroutine use of a Device into a panic instead of silent meter corruption.
func TestOwnercheckCrossGoroutine(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := d.Alloc(rum.Base) // binds d to this goroutine
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	violated := make(chan bool, 1)
	go func() {
		defer func() { violated <- recover() != nil }()
		d.Read(id)
	}()
	if !<-violated {
		t.Fatal("cross-goroutine Device use did not panic under -tags racecheck")
	}
}

// TestOwnercheckSameGoroutine verifies repeated use from the owner stays
// silent, including through a BufferPool.
func TestOwnercheckSameGoroutine(t *testing.T) {
	p := NewBufferPool(NewDevice(64, RAM, nil), 2)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	p.FlushAll()
	p.DropAll()
}

// TestOwnercheckPeek: Peek moves nothing, but it reads a frame table the
// owner mutates, so it is owner-bound like every other pool method.
func TestOwnercheckPeek(t *testing.T) {
	p := NewBufferPool(NewDevice(64, RAM, nil), 2)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if p.Peek(f.ID()) == nil {
		t.Fatal("Peek of a resident page returned nil")
	}
	violated := make(chan bool, 1)
	go func() {
		defer func() { violated <- recover() != nil }()
		p.Peek(f.ID())
	}()
	if !<-violated {
		t.Fatal("cross-goroutine BufferPool.Peek did not panic under -tags racecheck")
	}
}
