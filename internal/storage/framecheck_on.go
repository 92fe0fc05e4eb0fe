//go:build racecheck

package storage

import (
	"bytes"
	"fmt"
)

// poisonByte fills an evicted frame's buffer, and the buffer of a frame from
// NewPageForOverwrite, in racecheck builds.
const poisonByte = 0xDB

// poison fills buf with poisonByte. NewPageForOverwrite calls it on the
// buffer it hands out, whatever the buffer held, so a caller that leaves a
// byte unwritten puts 0xDB on the device instead of a recycled page's stale
// byte — or, in a fresh buffer, a zero that would hide the omission.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = poisonByte
	}
}

// lend is the checked variant of a frame borrowing the device's image: the
// frame shows a private copy, so that a write through Data() that did not go
// through MarkDirty first lands there instead of on the device, where
// checkClean finds it.
func lend(image []byte) []byte { return bytes.Clone(image) }

// checkPinned panics when Data is asked of a frame nobody has pinned: the
// caller kept a *Frame past its last Release. A release build hands back
// whatever the frame holds by then — the same page, or, once an eviction has
// recycled the struct, another page's bytes — so the read half of the frame
// check fails here, on first use, not only once an eviction has poisoned the
// bytes.
func checkPinned(f *Frame) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: Data of page %d read from an unpinned frame (used after Release)", f.id))
	}
}

// checkClean panics when a clean frame's bytes are not the device's: somebody
// wrote Data() without marking the frame dirty first (or kept a slice from
// before MarkDirty and wrote that). A release build would have changed the
// device's image with no write charged and none to lose in a crash. It runs
// when a frame is released, marked dirty or evicted. Pages freed behind the
// pool's back have no image left to compare with.
func (p *BufferPool) checkClean(f *Frame) {
	if f.dirty || p.dev.check(f.id) != nil {
		return
	}
	if !bytes.Equal(f.data, p.dev.pages[f.id]) {
		panic(fmt.Sprintf("storage: clean frame of page %d differs from the device's image (written without MarkDirty first)", f.id))
	}
}

// handOff is the checked variant of the eviction hand-off. A release build
// recycles the victim's struct for the page being installed, so a caller
// that kept a *Frame past Release silently reads another page's bytes. Here
// the victim's bytes — always a private copy in this build — are poisoned
// and left with the victim, and the install gets a fresh struct: the stale
// reader sees 0xDB in every byte — page headers decode to absurd counts —
// and fails loudly instead.
func (p *BufferPool) handOff(victim *Frame) *Frame {
	poison(victim.data)
	if victim.owned {
		victim.owned = false
		p.owned--
	}
	return &Frame{pool: p}
}

// ghostFrame is the checked variant of adopt finding its page-table slot
// occupied: a structure freed a page with Device.Free instead of
// BufferPool.FreePage, and the device recycled the id while the old frame was
// still cached. A release build overwrites the slot and leaves the old frame
// on the LRU list, where its eviction later clears the slot of the page that
// replaced it; here the first step of that fails loudly.
func ghostFrame(id PageID) {
	panic(fmt.Sprintf("storage: page %d installed over a frame still cached for it (freed behind the pool's back)", id))
}
