//go:build racecheck

package storage

import "fmt"

// poisonByte fills an evicted frame's buffer in racecheck builds.
const poisonByte = 0xDB

// handOff is the checked variant of the eviction hand-off. A release build
// recycles the victim's frame for the page being installed, so a caller that
// kept a *Frame or a Data() slice past Release silently reads another page's
// bytes. Here the victim's buffer is poisoned and left with the victim, and
// the install gets a fresh frame: the stale reader sees 0xDB in every byte —
// page headers decode to absurd counts — and fails loudly instead.
func handOff(victim *Frame) *Frame {
	for i := range victim.data {
		victim.data[i] = poisonByte
	}
	return &Frame{data: make([]byte, len(victim.data))}
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
