package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rum"
)

func TestDeviceAllocReadWrite(t *testing.T) {
	meter := &rum.Meter{}
	d := NewDevice(128, SSD, meter)
	id := d.Alloc(rum.Base)

	page, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range page {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	data := bytes.Repeat([]byte{0xAB}, 128)
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	if meter.BaseRead != 256 || meter.BaseWritten != 128 {
		t.Fatalf("meter: read=%d written=%d", meter.BaseRead, meter.BaseWritten)
	}
	st := d.Stats()
	if st.PageReads != 2 || st.PageWrites != 1 || st.PagesAllocated != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// A recycled page Alloc did not clear reads as zeros through every read
	// path: Read, ReadBatch and a Readahead-installed frame.
	zeros := make([]byte, 128)
	d = NewDevice(128, MQSSD, nil)
	if page, err := d.Read(recycled(t, d)); err != nil || !bytes.Equal(page, zeros) {
		t.Fatalf("Read of a recycled page: %x, %v", page, err)
	}
	written := d.Alloc(rum.Base)
	if err := d.Write(written, data); err != nil {
		t.Fatal(err)
	}
	if pages, err := d.ReadBatch([]PageID{written, recycled(t, d)}); err != nil ||
		!bytes.Equal(pages[0], data) || !bytes.Equal(pages[1], zeros) {
		t.Fatalf("ReadBatch over a recycled page: %x, %v", pages, err)
	}
	p := NewBufferPool(d, 4)
	id = recycled(t, d)
	if n := p.Readahead([]PageID{id}); n != 1 {
		t.Fatalf("Readahead installed %d pages", n)
	}
	if got := p.Peek(id); !bytes.Equal(got, zeros) {
		t.Fatalf("Readahead-installed recycled page shows %x", got)
	}

	// Replace on a recycled page: the new image reads back, whatever the
	// buffer it returns holds; ReplaceBatch likewise.
	id = recycled(t, d)
	if _, err := d.Replace(id, bytes.Clone(data)); err != nil {
		t.Fatal(err)
	}
	if page, err := d.Read(id); err != nil || !bytes.Equal(page, data) {
		t.Fatalf("Read after Replace of a recycled page: %x, %v", page, err)
	}
	ids := []PageID{recycled(t, d), recycled(t, d)}
	if n, err := d.ReplaceBatch(ids, [][]byte{bytes.Clone(data), bytes.Clone(data)}); n != 2 || err != nil {
		t.Fatalf("ReplaceBatch of recycled pages: %d, %v", n, err)
	}
	if pages, err := d.ReadBatch(ids); err != nil || !bytes.Equal(pages[0], data) || !bytes.Equal(pages[1], data) {
		t.Fatalf("ReadBatch after ReplaceBatch of recycled pages: %x, %v", pages, err)
	}
}

// recycled returns a live page of d that no write has reached since Alloc
// handed its id out again: the page was filled with 0xEE, freed and
// allocated anew, and its buffer still holds the freed page's bytes, so a
// read that did not clear it would show them.
func recycled(t *testing.T, d *Device) PageID {
	t.Helper()
	id := d.Alloc(rum.Base)
	if err := d.Write(id, bytes.Repeat([]byte{0xEE}, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if again := d.Alloc(rum.Aux); again != id {
		t.Fatalf("Alloc after Free returned %d, want the freed %d", again, id)
	}
	if !d.unwritten[id] || d.pages[id][0] != 0xEE {
		t.Fatalf("recycled page %d is not the uncleared, unwritten case (%x)", id, d.pages[id])
	}
	return id
}

func TestDeviceClassAccounting(t *testing.T) {
	meter := &rum.Meter{}
	d := NewDevice(64, RAM, meter)
	base := d.Alloc(rum.Base)
	aux := d.Alloc(rum.Aux)
	if _, err := d.Read(base); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(aux); err != nil {
		t.Fatal(err)
	}
	if meter.BaseRead != 64 || meter.AuxRead != 64 {
		t.Fatalf("class split: base=%d aux=%d", meter.BaseRead, meter.AuxRead)
	}
	if d.Class(base) != rum.Base || d.Class(aux) != rum.Aux {
		t.Fatal("class lookup")
	}
}

func TestDeviceFreeAndReuse(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	a := d.Alloc(rum.Base)
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(a); !errors.Is(err, ErrFreed) {
		t.Fatalf("read after free: %v", err)
	}
	if err := d.Free(a); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free: %v", err)
	}
	b := d.Alloc(rum.Aux)
	if b != a {
		t.Fatalf("freed page not reused: got %d want %d", b, a)
	}
	page, err := d.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range page {
		if by != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	if d.LivePages() != 1 {
		t.Fatalf("live pages %d", d.LivePages())
	}
}

func TestDeviceErrors(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	if _, err := d.Read(99); !errors.Is(err, ErrBadPage) {
		t.Fatalf("bad page read: %v", err)
	}
	id := d.Alloc(rum.Base)
	if err := d.Write(id, make([]byte, 10)); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestMediumCosts(t *testing.T) {
	// The full valid set, with the channel parallelism each model carries.
	wantChannels := map[Medium]int{RAM: 1, SSD: 1, HDD: 1, SMR: 1, MQSSD: 8}
	for m, ch := range wantChannels {
		if m.String() == "" {
			t.Fatal("empty medium name")
		}
		cm := m.Model()
		if cm.ReadCost == 0 || cm.WriteCost == 0 {
			t.Fatalf("%v: zero cost", m)
		}
		if cm.Channels != ch {
			t.Fatalf("%v: channels %d, want %d", m, cm.Channels, ch)
		}
		if got, err := ParseMedium(m.String()); err != nil || got != m {
			t.Fatalf("ParseMedium(%q) = %v, %v", m.String(), got, err)
		}
	}
	// Flash asymmetry: SSD writes cost more than reads; SMR worse still.
	if cm := SSD.Model(); cm.WriteCost <= cm.ReadCost {
		t.Fatal("SSD write should cost more than read")
	}
	if cm := SMR.Model(); cm.WriteCost <= 100 {
		t.Fatal("SMR writes should be punitive")
	}
	// MQSSD is the SSD behind a queue: identical service times, so any cost
	// difference between the two media is attributable to batching alone.
	if ssd, mq := SSD.Model(), MQSSD.Model(); ssd.ReadCost != mq.ReadCost || ssd.WriteCost != mq.WriteCost {
		t.Fatalf("MQSSD service times diverge from SSD: %+v vs %+v", mq, ssd)
	}
	d := NewDevice(64, HDD, nil)
	id := d.Alloc(rum.Base)
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	if d.Stats().CostUnits != 100 {
		t.Fatalf("HDD read cost: %d", d.Stats().CostUnits)
	}
	if _, err := ParseMedium("floppy"); err == nil {
		t.Fatal("ParseMedium accepted an unknown medium")
	}
}

// TestInvalidMediumPanics pins the satellite contract: a misconfigured
// medium must fail at construction, not silently price like RAM.
func TestInvalidMediumPanics(t *testing.T) {
	for _, m := range []Medium{Medium(-1), Medium(99)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDevice(%d) did not panic", int(m))
				}
			}()
			NewDevice(64, m, nil)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Medium(%d).Model() did not panic", int(m))
				}
			}()
			m.Model()
		}()
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	a := d.Alloc(rum.Base)
	b := d.Alloc(rum.Base)
	c := d.Alloc(rum.Base)

	f, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	f, err = p.Fetch(a) // hit
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Fill and evict: a is LRU after touching b.
	f, _ = p.Fetch(b)
	p.Release(f)
	f, _ = p.Fetch(c) // evicts a
	p.Release(f)
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
	}
	before := d.Stats().PageReads
	f, _ = p.Fetch(a) // must go to the device again
	p.Release(f)
	if d.Stats().PageReads != before+1 {
		t.Fatal("evicted page served without device read")
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestBufferPoolWriteBack(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 1)
	a := d.Alloc(rum.Base)

	f, _ := p.Fetch(a)
	f.MarkDirty()
	copy(f.Data(), bytes.Repeat([]byte{7}, 64))
	p.Release(f)

	// Evict a by fetching another page.
	b := d.Alloc(rum.Base)
	f, _ = p.Fetch(b)
	p.Release(f)
	if p.Stats().WriteBacks != 1 {
		t.Fatalf("writebacks: %d", p.Stats().WriteBacks)
	}
	// The device must hold the flushed contents.
	page, _ := d.Read(a)
	if page[0] != 7 {
		t.Fatal("dirty eviction lost data")
	}
}

func TestBufferPoolNewPageIsBlindWrite(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	f, err := p.NewPage(rum.Aux)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if d.Stats().PageReads != 0 {
		t.Fatal("NewPage caused a device read")
	}
	p.FlushAll()
	if d.Stats().PageWrites != 1 {
		t.Fatalf("flush writes: %d", d.Stats().PageWrites)
	}
}

func TestBufferPoolPinnedOverflow(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 1)
	a := d.Alloc(rum.Base)
	b := d.Alloc(rum.Base)
	fa, _ := p.Fetch(a)
	fb, err := p.Fetch(b) // pool full of pinned frames: must overflow, not fail
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Overflows != 1 {
		t.Fatalf("overflows: %d", p.Stats().Overflows)
	}
	p.Release(fa)
	p.Release(fb)
}

func TestBufferPoolFreePage(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	f, _ := p.NewPage(rum.Base)
	id := f.ID()
	if err := p.FreePage(id); err == nil {
		t.Fatal("freeing a pinned page must fail")
	}
	p.Release(f)
	if err := p.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(id); err == nil {
		t.Fatal("fetch of freed page succeeded")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 8)
	for i := 0; i < 4; i++ {
		f, _ := p.NewPage(rum.Base)
		f.Data()[0] = byte(i)
		f.MarkDirty()
		p.Release(f)
	}
	p.DropAll()
	if p.Len() != 0 {
		t.Fatalf("frames after DropAll: %d", p.Len())
	}
	if d.Stats().PageWrites != 4 {
		t.Fatalf("DropAll flushed %d pages", d.Stats().PageWrites)
	}
}

// TestDeviceRoundTripProperty: what is written is what is read, for any
// contents.
func TestDeviceRoundTripProperty(t *testing.T) {
	d := NewDevice(32, RAM, nil)
	id := d.Alloc(rum.Base)
	f := func(content [32]byte) bool {
		if err := d.Write(id, content[:]); err != nil {
			return false
		}
		got, err := d.Read(id)
		return err == nil && bytes.Equal(got, content[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseMedium: any string ParseMedium accepts is the medium's String,
// and no input panics.
func FuzzParseMedium(f *testing.F) {
	for _, s := range []string{"ram", "ssd", "hdd", "smr", "mqssd", "SSD", "medium(9)", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMedium(s)
		if err != nil {
			return
		}
		if m2, err := ParseMedium(m.String()); err != nil || m2 != m || m.String() != s {
			t.Fatalf("ParseMedium(%q) = %v; its String %q parses to %v, %v", s, m, m.String(), m2, err)
		}
	})
}
