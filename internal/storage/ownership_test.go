package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/rum"
)

func page64(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }

// TestDeviceReplace pins the hand-over entry points: the image passed in is
// the page's image afterwards (what Read returns), the previous one comes
// back, the charge is Write's, and the batch form is WriteBatch's submission
// with the images swapped in place.
func TestDeviceReplace(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	ids := allocN(t, d, 4, rum.Base)
	for i, id := range ids {
		if err := d.Write(id, page64(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()

	mine := page64(0xA0)
	prev, err := d.Replace(ids[0], mine)
	if err != nil || !bytes.Equal(prev, page64(1)) {
		t.Fatalf("Replace returned %x, %v; want the previous image", prev, err)
	}
	got, _ := d.Read(ids[0])
	if &got[0] != &mine[0] {
		t.Fatal("the device copied the image it was handed")
	}
	if _, err := d.Replace(ids[0], make([]byte, 63)); err == nil {
		t.Fatal("Replace accepted a short image")
	}
	if st := d.Stats(); st.PageWrites != before.PageWrites+1 || st.CostUnits-before.CostUnits != d.CostModel().WriteCost+d.CostModel().ReadCost {
		t.Fatalf("one Replace and one Read charged %+v → %+v", before, st)
	}

	images := [][]byte{page64(0xB1), page64(0xB2), page64(0xB3)}
	first := &images[0][0]
	before = d.Stats()
	n, err := d.ReplaceBatch(ids[1:], images)
	if n != 3 || err != nil {
		t.Fatalf("ReplaceBatch = %d, %v", n, err)
	}
	for i, img := range images {
		if !bytes.Equal(img, page64(byte(i+2))) {
			t.Fatalf("images[%d] = %x after the batch, want page %d's previous image", i, img, ids[1+i])
		}
	}
	if got, _ := d.Read(ids[1]); &got[0] != first {
		t.Fatal("the batch copied the image it was handed")
	}
	st := d.Stats()
	if st.Batches != before.Batches+1 || st.BatchedPages != before.BatchedPages+3 ||
		st.CostUnits-before.CostUnits != d.CostModel().BatchCost(3, true)+d.CostModel().ReadCost {
		t.Fatalf("a 3-page ReplaceBatch was not charged as one submission: %+v → %+v", before, st)
	}

	// The per-page path stops at the first bad page and says how far it got.
	flat := NewDevice(64, SSD, nil)
	fids := allocN(t, flat, 3, rum.Base)
	if err := flat.Free(fids[1]); err != nil {
		t.Fatal(err)
	}
	images = [][]byte{page64(1), page64(2), page64(3)}
	if n, err := flat.ReplaceBatch(fids, images); n != 1 || !errors.Is(err, ErrFreed) {
		t.Fatalf("ReplaceBatch over a freed page = %d, %v; want 1, ErrFreed", n, err)
	}
	if !bytes.Equal(images[0], make([]byte, 64)) || !bytes.Equal(images[1], page64(2)) {
		t.Fatalf("after a batch that stopped at page 1 the images are %x", images)
	}
}

// TestPinnedFrameStaysWritableAcrossFlushAll: a write-back hands a frame's
// buffer to the device only while nobody holds the frame. A holder that
// marked its frame dirty keeps writing through the same slice across a
// FlushAll — the device got a copy — and those later writes reach the device
// at the next write-back and not before.
func TestPinnedFrameStaysWritableAcrossFlushAll(t *testing.T) {
	for _, medium := range []Medium{SSD, MQSSD} {
		d := NewDevice(64, medium, nil)
		p := NewBufferPool(d, 4)
		held, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		held.MarkDirty()
		w := held.Data()
		copy(w, page64(0x11))
		other, _ := p.NewPage(rum.Base)
		fill(other, 0x22)
		p.Release(other)

		p.FlushAll()
		if st := p.Stats(); st.WriteBacks != 2 || st.Handovers != 1 || p.DirtyCount() != 0 {
			t.Fatalf("%v: flush of one pinned and one free frame: %+v", medium, st)
		}
		if img := d.pages[held.ID()]; !bytes.Equal(img, page64(0x11)) || &img[0] == &w[0] {
			t.Fatalf("%v: the pinned frame's page holds %x (shared with the frame: %v)", medium, img, &img[0] == &w[0])
		}

		held.MarkDirty()
		copy(w, page64(0x33))
		if !bytes.Equal(held.Data(), page64(0x33)) {
			t.Fatalf("%v: the holder's slice is no longer the frame's: frame shows %x", medium, held.Data())
		}
		if img := d.pages[held.ID()]; !bytes.Equal(img, page64(0x11)) {
			t.Fatalf("%v: the device holds %x before the write-back", medium, img)
		}
		p.Release(held)
		p.FlushAll()
		if img := d.pages[held.ID()]; !bytes.Equal(img, page64(0x33)) {
			t.Fatalf("%v: the device holds %x after the write-back", medium, img)
		}
		if st := p.Stats(); st.WriteBacks != 3 || st.Handovers != 2 {
			t.Fatalf("%v: %+v", medium, st)
		}
	}
}

// TestArmedDeviceHandsWriteBacksOver: with an injector armed a batched
// write-back hands over the frames it reached, and the frame whose write
// failed — here torn, permanently — still owns its image: the device never
// swapped it, so a retry writes the whole image from it. The frame after it
// falls back to the per-frame flush, which hands its buffer over too and
// borrows it back.
func TestArmedDeviceHandsWriteBacksOver(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 4)
	var frames []*Frame
	for i := 0; i < 3; i++ {
		f, _ := p.NewPage(rum.Base)
		fill(f, byte(i+1))
		p.Release(f)
		frames = append(frames, f)
	}
	bad := frames[1].ID()
	d.SetInjector(&scriptInjector{badWrite: map[PageID]error{bad: permanent()}, tornAt: map[uint64]int{2: 8}})
	p.FlushAll() // the group [0, 1, 2] stops at frame 1, torn
	st := p.Stats()
	if st.WriteBacks != 2 || st.Handovers != 2 || st.FlushFailures != 1 || p.DirtyCount() != 1 {
		t.Fatalf("armed flush: %+v, %d dirty", st, p.DirtyCount())
	}
	if frames[0].owned || !frames[1].owned || !frames[1].dirty || frames[2].owned {
		t.Fatalf("owned %v %v %v: want the handed-over frames borrowing, the failed one owning",
			frames[0].owned, frames[1].owned, frames[2].owned)
	}
	for i, f := range frames {
		if !bytes.Equal(f.data, page64(byte(i+1))) {
			t.Fatalf("frame %d shows %x", i, f.data)
		}
	}
	if torn := d.pages[bad]; !bytes.Equal(torn[:8], page64(2)[:8]) || !bytes.Equal(torn[8:], make([]byte, 56)) {
		t.Fatalf("the failed page holds %x, want the torn prefix alone", torn)
	}
	d.SetInjector(nil)
	p.FlushAll()
	if st := p.Stats(); st.WriteBacks != 3 || st.Handovers != 3 || p.DirtyCount() != 0 {
		t.Fatalf("disarmed flush: %+v", st)
	}
	if !bytes.Equal(d.pages[bad], page64(2)) {
		t.Fatalf("the retried page holds %x", d.pages[bad])
	}
}

// TestPoolScratchAndSpareAreReleased: nothing the pool keeps between calls
// may pin a frame or a page image that has changed owner — the write-back and
// readahead scratch is cleared when its submission ends — and the buffers it
// does keep stay within capacity and go when the cache is emptied.
func TestPoolScratchAndSpareAreReleased(t *testing.T) {
	d := NewDevice(64, MQSSD, nil)
	p := NewBufferPool(d, 16)
	var ids []PageID
	for i := 0; i < 40; i++ { // evicts in groups from the 17th page on
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		fill(f, byte(i))
		ids = append(ids, f.ID())
		p.Release(f)
	}
	p.FlushAll()
	if n := p.Readahead(ids[:8]); n != 8 {
		t.Fatalf("readahead installed %d of 8", n)
	}
	for _, f := range p.group[:cap(p.group)] {
		if f != nil {
			t.Fatal("the write-back group still holds a frame")
		}
	}
	for _, scratch := range [][][]byte{p.wbData[:cap(p.wbData)], p.raPages[:cap(p.raPages)]} {
		for _, img := range scratch {
			if img != nil {
				t.Fatal("a batch scratch slice still holds a page image")
			}
		}
	}
	if p.owned != 0 || len(p.spare) == 0 || len(p.spare) > p.Capacity() {
		t.Fatalf("after a full flush: %d owned, %d spare, capacity %d", p.owned, len(p.spare), p.Capacity())
	}
	if err := p.FreePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if p.idle == nil {
		t.Fatal("the freed frame's struct was not kept")
	}

	p.DropAll()
	if p.spare != nil || p.idle != nil || p.owned != 0 || p.Len() != 0 {
		t.Fatalf("DropAll left %d spare buffers, idle %v, %d owned, %d frames", len(p.spare), p.idle, p.owned, p.Len())
	}
	f, _ := p.NewPage(rum.Base)
	p.Release(f)
	p.FlushAll()
	p.Crash()
	if p.spare != nil || p.idle != nil || p.owned != 0 {
		t.Fatalf("Crash left %d spare buffers, idle %v, %d owned", len(p.spare), p.idle, p.owned)
	}
}
