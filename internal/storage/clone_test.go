package storage

import (
	"bytes"
	"testing"

	"repro/internal/rum"
)

// TestDeviceClone checks that Clone produces an identical, fully independent
// device image: same pages, classes, and free list, but mutations and meter
// traffic on one side never show on the other.
func TestDeviceClone(t *testing.T) {
	var meter rum.Meter
	d := NewDevice(128, SSD, &meter)
	base := d.Alloc(rum.Base)
	aux := d.Alloc(rum.Aux)
	freed := d.Alloc(rum.Aux)
	if err := d.Free(freed); err != nil {
		t.Fatal(err)
	}
	page := func(s string) []byte { return append([]byte(s), make([]byte, 128-len(s))...) }
	if _, err := d.Replace(base, page("original")); err != nil {
		t.Fatal(err)
	}

	var cmeter rum.Meter
	c := d.Clone(&cmeter)
	if c.PageSize() != 128 || c.Medium() != SSD {
		t.Fatalf("clone geometry %d/%v", c.PageSize(), c.Medium())
	}
	if c.Stats() != d.Stats() {
		t.Fatalf("clone stats %+v != template %+v", c.Stats(), d.Stats())
	}
	if c.LiveBytes() != d.LiveBytes() {
		t.Fatalf("clone live bytes %+v != %+v", c.LiveBytes(), d.LiveBytes())
	}
	got, err := c.Read(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("original")) {
		t.Fatalf("clone page contents %q", got[:8])
	}
	if c.Class(aux) != rum.Aux {
		t.Fatalf("clone lost class of page %d", aux)
	}

	// The freed page must be reusable on both sides, independently.
	if id := c.Alloc(rum.Base); id != freed {
		t.Fatalf("clone recycled page %d, want %d", id, freed)
	}
	if id := d.Alloc(rum.Base); id != freed {
		t.Fatalf("template recycled page %d, want %d", id, freed)
	}

	// Mutating the clone leaves the template untouched.
	prev, err := c.Replace(base, page("mutated!"))
	if err != nil || !bytes.HasPrefix(prev, []byte("original")) {
		t.Fatalf("Replace on the clone returned %q, %v; want the clone's previous image", prev[:8], err)
	}
	orig, err := d.Read(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(orig, []byte("original")) {
		t.Fatalf("clone mutation leaked into template: %q", orig[:8])
	}

	// Clone traffic lands on the clone's meter only.
	tmpl := meter
	if _, err := c.Read(base); err != nil {
		t.Fatal(err)
	}
	if meter != tmpl {
		t.Fatalf("clone read moved the template meter: %+v -> %+v", tmpl, meter)
	}
	if cmeter.BaseRead == 0 {
		t.Fatalf("clone traffic unmetered: %+v", cmeter)
	}
}
