//go:build !racecheck

package storage

// handOff is the release build of the eviction hand-off: the victim's frame,
// struct and page buffer, goes to the page being installed as is. See
// framecheck_on.go (built with -tags racecheck) for the checked variant.
func handOff(victim *Frame) *Frame { return victim }

// ghostFrame is the release build of the occupied-slot check in adopt: a
// no-op. See framecheck_on.go.
func ghostFrame(PageID) {}
