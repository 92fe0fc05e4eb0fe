//go:build !racecheck

package storage

// lend is the release build of a frame borrowing the device's image of its
// page: Data() is that slice itself, no copy. See framecheck_on.go (built
// with -tags racecheck) for the checked variants of everything in this file.
func lend(image []byte) []byte { return image }

// checkPinned is the release build of the use-after-release check on Data:
// a no-op, so Data stays a plain, inlinable accessor.
func checkPinned(*Frame) {}

// checkClean is the release build of the clean-frame comparison: a no-op.
func (p *BufferPool) checkClean(*Frame) {}

// handOff is the release build of the eviction hand-off: the victim's struct
// goes to the page being installed, and its buffer, had a copying write-back
// left it one, to the spare list.
func (p *BufferPool) handOff(victim *Frame) *Frame {
	p.strip(victim)
	return victim
}

// poison is the release build of NewPageForOverwrite's buffer fill: a no-op,
// the buffer keeps whatever it held.
func poison([]byte) {}

// ghostFrame is the release build of the occupied-slot check in adopt: a
// no-op.
func ghostFrame(PageID) {}
