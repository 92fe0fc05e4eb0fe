// Package hierarchy simulates the memory/storage hierarchy of Figure 2:
// data lives persistently at the bottom level and is replicated, in various
// forms, across the levels above, each with its own capacity and access
// cost. Every level carries its own RUM meter, so the figure's claim can be
// measured directly: the read and write overheads RO(n), UO(n) at level n
// can be reduced by storing more data at level n-1 — which raises MO(n-1).
package hierarchy

import (
	"container/list"
	"fmt"

	"repro/internal/rum"
	"repro/internal/storage"
)

// Level is one tier of the hierarchy (e.g. cache, RAM, SSD, disk).
type Level struct {
	Name     string
	Capacity int // pages this level can hold; <= 0 means unbounded (bottom)
	Medium   storage.Medium

	meter   rum.Meter
	frames  map[uint64]*list.Element // page → lru element
	lru     *list.List               // front = most recent; values are pageEntry
	hits    uint64
	misses  uint64
	evicted uint64
}

type pageEntry struct {
	page  uint64
	dirty bool
}

// Meter returns this level's RUM accounting.
func (l *Level) Meter() *rum.Meter { return &l.meter }

// Hits and Misses report this level's cache behaviour.
func (l *Level) Hits() uint64 { return l.hits }

// Misses reports requests this level could not serve.
func (l *Level) Misses() uint64 { return l.misses }

// Resident returns the number of pages currently held.
func (l *Level) Resident() int { return len(l.frames) }

func (l *Level) unbounded() bool { return l.Capacity <= 0 }

// Hierarchy is a stack of levels; index 0 is the top (fastest, smallest) and
// the last level is the unbounded persistent bottom. Not safe for concurrent
// use.
type Hierarchy struct {
	levels   []*Level
	pageSize int
	dataSet  map[uint64]bool // pages that exist (for MO denominators)
}

// New builds a hierarchy from the given level specs; the last level is
// forced unbounded (persistent home of the data).
func New(pageSize int, levels []Level) (*Hierarchy, error) {
	if len(levels) < 2 {
		return nil, fmt.Errorf("hierarchy: need at least two levels")
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("hierarchy: page size must be positive")
	}
	h := &Hierarchy{pageSize: pageSize, dataSet: make(map[uint64]bool)}
	for i := range levels {
		l := levels[i]
		if i == len(levels)-1 {
			l.Capacity = 0 // bottom is unbounded
		} else if l.Capacity <= 0 {
			return nil, fmt.Errorf("hierarchy: level %d (%s) needs a capacity", i, l.Name)
		}
		l.frames = make(map[uint64]*list.Element)
		l.lru = list.New()
		h.levels = append(h.levels, &l)
	}
	return h, nil
}

// Levels returns the stacked levels, top first.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// Populate installs n pages of base data at the bottom level.
func (h *Hierarchy) Populate(n int) {
	bottom := h.levels[len(h.levels)-1]
	for p := uint64(0); p < uint64(n); p++ {
		h.dataSet[p] = true
		if _, ok := bottom.frames[p]; !ok {
			bottom.frames[p] = bottom.lru.PushFront(&pageEntry{page: p})
		}
	}
}

// install places page p at level i, evicting as needed; dirty evictions are
// written one level down (recursively).
func (h *Hierarchy) install(i int, p uint64, dirty bool) {
	l := h.levels[i]
	if e, ok := l.frames[p]; ok {
		ent := e.Value.(*pageEntry)
		ent.dirty = ent.dirty || dirty
		l.lru.MoveToFront(e)
		return
	}
	if !l.unbounded() && len(l.frames) >= l.Capacity {
		// Evict LRU.
		back := l.lru.Back()
		if back != nil {
			ent := back.Value.(*pageEntry)
			l.lru.Remove(back)
			delete(l.frames, ent.page)
			l.evicted++
			if ent.dirty && i+1 < len(h.levels) {
				// Write-back one level down.
				h.levels[i+1].meter.CountWrite(rum.Base, h.pageSize)
				h.install(i+1, ent.page, true)
			}
		}
	}
	l.frames[p] = l.lru.PushFront(&pageEntry{page: p, dirty: dirty})
}

// Read serves a page request, probing levels top-down. The level that serves
// the request is charged a page read; the page is then promoted into every
// level above (inclusive caching), each charged a page write for the fill.
// It returns the index of the serving level.
func (h *Hierarchy) Read(p uint64) int {
	for i, l := range h.levels {
		if _, ok := l.frames[p]; ok {
			l.hits++
			l.meter.CountRead(rum.Base, h.pageSize)
			l.meter.CountLogicalRead(h.pageSize)
			if e := l.frames[p]; e != nil {
				l.lru.MoveToFront(e)
			}
			for j := i - 1; j >= 0; j-- {
				h.levels[j].meter.CountWrite(rum.Aux, h.pageSize) // cache fill
				h.install(j, p, false)
			}
			return i
		}
		l.misses++
	}
	// Unknown page: charge the bottom as a full miss.
	bottom := len(h.levels) - 1
	h.levels[bottom].meter.CountRead(rum.Base, h.pageSize)
	h.levels[bottom].meter.CountLogicalRead(h.pageSize)
	return bottom
}

// Write dirties a page at the top level (write-back caching): the top is
// charged the page write; lower levels only pay when dirty pages are evicted
// toward them.
func (h *Hierarchy) Write(p uint64) {
	h.dataSet[p] = true
	top := h.levels[0]
	top.meter.CountWrite(rum.Base, h.pageSize)
	top.meter.CountLogicalWrite(h.pageSize)
	h.install(0, p, true)
}

// FlushAll forces every dirty page down to the bottom, charging write-backs
// level by level.
func (h *Hierarchy) FlushAll() {
	for i := 0; i < len(h.levels)-1; i++ {
		l := h.levels[i]
		for e := l.lru.Front(); e != nil; e = e.Next() {
			ent := e.Value.(*pageEntry)
			if ent.dirty {
				h.levels[i+1].meter.CountWrite(rum.Base, h.pageSize)
				h.install(i+1, ent.page, true)
				ent.dirty = false
			}
		}
	}
	// Bottom pages are home; mark clean.
	bottom := h.levels[len(h.levels)-1]
	for e := bottom.lru.Front(); e != nil; e = e.Next() {
		e.Value.(*pageEntry).dirty = false
	}
}

// SpaceAmplification returns MO at level i: bytes resident at that level
// relative to the base data size. The bottom level's MO is 1.0 by
// construction; upper levels add replication overhead.
func (h *Hierarchy) SpaceAmplification(i int) float64 {
	base := uint64(len(h.dataSet)) * uint64(h.pageSize)
	if base == 0 {
		return 0
	}
	resident := uint64(h.levels[i].Resident()) * uint64(h.pageSize)
	return float64(resident) / float64(base)
}
