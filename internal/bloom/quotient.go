package bloom

import (
	"fmt"
	"sort"

	"repro/internal/rum"
)

// Quotient is a quotient filter (Bender et al., "Don't Thrash: How to Cache
// Your Hash on Flash"): an approximate membership structure that, unlike a
// plain Bloom filter, supports deletes and exact resizing — the "updatable
// probabilistic data structure" Section 5 of the paper names for absorbing
// updates in approximate indexes.
//
// A p-bit fingerprint f of each key splits into a q-bit quotient (its home
// slot) and an r-bit remainder stored in the slot. Remainders that collide
// on a home slot form sorted runs shifted right within a cluster, tracked
// by three metadata bits per slot (occupied / continuation / shifted).
//
// Mutations decode the affected cluster into its fingerprints, modify the
// set, and re-encode canonically — touching exactly the cluster (expected
// O(1) slots at moderate load), which is also what the meter charges.
// The filter doubles past load 0.85, stealing one remainder bit so the
// fingerprint width stays constant; fingerprints are recoverable from the
// table, so resizing needs no access to the original keys (impossible for a
// Bloom filter). Not safe for concurrent use.
type Quotient struct {
	q     uint // log2 slots
	r     uint // remainder bits
	slots []qslot
	n     int
	meter *rum.Meter
}

type qslot struct {
	remainder uint64
	used      bool // slot holds a remainder
	occupied  bool // some fingerprint's home is this slot
	cont      bool // continues the previous slot's run
	shifted   bool // remainder is not in its home slot
}

// slotBytes is the accounted footprint of one slot: r remainder bits plus
// three metadata bits, rounded up to whole bytes.
func (f *Quotient) slotBytes() int { return int(f.r+3+7) / 8 }

// NewQuotient creates a filter with 2^q slots and p total fingerprint bits
// (p > q; p = 0 defaults to q+8). A nil meter gets a private one.
func NewQuotient(q uint, p uint, meter *rum.Meter) (*Quotient, error) {
	if q < 3 || q > 30 {
		return nil, fmt.Errorf("bloom: quotient q=%d out of range [3,30]", q)
	}
	if p == 0 {
		p = q + 8
	}
	if p <= q || p > 60 {
		return nil, fmt.Errorf("bloom: fingerprint bits p=%d invalid for q=%d", p, q)
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Quotient{q: q, r: p - q, slots: make([]qslot, 1<<q), meter: meter}, nil
}

// SizeBytes returns the filter's accounted footprint.
func (f *Quotient) SizeBytes() uint64 { return uint64(len(f.slots)) * uint64(f.slotBytes()) }

// Meter returns the RUM accounting.
func (f *Quotient) Meter() *rum.Meter { return f.meter }

// LoadFactor returns stored fingerprints per slot.
func (f *Quotient) LoadFactor() float64 { return float64(f.n) / float64(len(f.slots)) }

func (f *Quotient) mask() uint64 { return uint64(len(f.slots) - 1) }

// fingerprint derives the p-bit fingerprint of key.
func (f *Quotient) fingerprint(key uint64) uint64 {
	return mix(key) & ((1 << (f.q + f.r)) - 1)
}

func (f *Quotient) split(fp uint64) (quot, rem uint64) {
	return fp >> f.r, fp & ((1 << f.r) - 1)
}

// fpEntry is one decoded fingerprint: home quotient + remainder.
type fpEntry struct{ q, r uint64 }

// clusterStart returns the start slot of the cluster containing quot, or
// quot itself with ok=false when no cluster covers it.
func (f *Quotient) clusterStart(quot uint64) (uint64, bool) {
	if !f.slots[quot].used {
		return quot, false
	}
	i := quot
	for f.slots[i].shifted {
		i = (i - 1) & f.mask()
	}
	return i, true
}

// decodeRegion reads the maximal used region starting at the cluster start
// `start`, returning its fingerprints in canonical order, the first unused
// slot after it, and the number of slots read. The region may contain
// several runs but is one cluster by construction (contiguous used slots).
func (f *Quotient) decodeRegion(start uint64) (entries []fpEntry, end uint64, read int) {
	i := start
	runHome := start
	first := true
	for f.slots[i].used {
		read++
		if !f.slots[i].cont {
			h := runHome
			if !first {
				h = (runHome + 1) & f.mask()
			}
			for !f.slots[h].occupied {
				h = (h + 1) & f.mask()
			}
			runHome = h
		}
		entries = append(entries, fpEntry{q: runHome, r: f.slots[i].remainder})
		first = false
		i = (i + 1) & f.mask()
		if i == start {
			break // the table is one full cluster
		}
	}
	return entries, i, read
}

// offset is the circular distance from base to pos.
func (f *Quotient) offset(base, pos uint64) uint64 {
	return (pos - base) & f.mask()
}

// encodeRegion writes entries (sorted by (q, r)) canonically starting at
// base, clearing `span` slots first, and returns the slots written.
// Placement: each run sits at max(its home, end of the previous run);
// gaps between runs stay empty, naturally splitting clusters.
func (f *Quotient) encodeRegion(base uint64, span uint64, entries []fpEntry) int {
	for off := uint64(0); off < span; off++ {
		f.slots[(base+off)&f.mask()] = qslot{}
	}
	writes := int(span)
	cursor := uint64(0) // next free offset from base
	i := 0
	for i < len(entries) {
		// One run: all entries sharing a home quotient.
		home := entries[i].q
		j := i
		for j < len(entries) && entries[j].q == home {
			j++
		}
		homeOff := f.offset(base, home)
		runOff := homeOff
		if cursor > runOff {
			runOff = cursor
		}
		f.slots[home].occupied = true
		for k := i; k < j; k++ {
			pos := (base + runOff + uint64(k-i)) & f.mask()
			s := &f.slots[pos]
			s.remainder = entries[k].r
			s.used = true
			s.cont = k != i
			s.shifted = runOff+uint64(k-i) != homeOff
			writes++
		}
		cursor = runOff + uint64(j-i)
		i = j
	}
	return writes
}

// neededSpan returns the region length the entries occupy when encoded from
// base.
func (f *Quotient) neededSpan(base uint64, entries []fpEntry) uint64 {
	cursor := uint64(0)
	i := 0
	for i < len(entries) {
		home := entries[i].q
		j := i
		for j < len(entries) && entries[j].q == home {
			j++
		}
		runOff := f.offset(base, home)
		if cursor > runOff {
			runOff = cursor
		}
		cursor = runOff + uint64(j-i)
		i = j
	}
	return cursor
}

// modify decodes the region around quot, applies fn to its fingerprints,
// and re-encodes, absorbing following clusters when the encoding grows into
// them. fn must return the new (possibly identical) entry set.
func (f *Quotient) modify(quot uint64, fn func([]fpEntry) []fpEntry) {
	start, ok := f.clusterStart(quot)
	var entries []fpEntry
	end := start
	read := 0
	if ok {
		entries, end, read = f.decodeRegion(start)
	}
	newEntries := fn(entries)
	sort.Slice(newEntries, func(a, b int) bool {
		oa, ob := f.offset(start, newEntries[a].q), f.offset(start, newEntries[b].q)
		if oa != ob {
			return oa < ob
		}
		return newEntries[a].r < newEntries[b].r
	})

	// Grow the working region until the encoding fits before the next
	// cluster (or over empty slots).
	span := f.offset(start, end)
	if end == start && ok {
		span = uint64(len(f.slots)) // decoded the whole table
	}
	for {
		need := f.neededSpan(start, newEntries)
		if need <= span || span >= uint64(len(f.slots)) {
			break
		}
		if !f.slots[end].used {
			end = (end + 1) & f.mask()
			span++
			continue
		}
		more, newEnd, r := f.decodeRegion(end)
		read += r
		newEntries = append(newEntries, more...)
		if newEnd == end { // wrapped the table
			span = uint64(len(f.slots))
			break
		}
		span += f.offset(end, newEnd)
		end = newEnd
	}
	if span > uint64(len(f.slots)) {
		span = uint64(len(f.slots))
	}
	writes := f.encodeRegion(start, span, newEntries)
	f.meter.CountRead(rum.Aux, read*f.slotBytes())
	f.meter.CountWrite(rum.Aux, writes*f.slotBytes())
}

// MayContain reports whether key may be present (false = definitely absent).
func (f *Quotient) MayContain(key uint64) bool {
	quot, rem := f.split(f.fingerprint(key))
	if !f.slots[quot].occupied {
		f.meter.CountRead(rum.Aux, f.slotBytes())
		return false
	}
	start, _ := f.clusterStart(quot)
	entries, _, read := f.decodeRegion(start)
	f.meter.CountRead(rum.Aux, read*f.slotBytes())
	for _, e := range entries {
		if e.q == quot && e.r == rem {
			return true
		}
	}
	return false
}

// Add inserts key's fingerprint (idempotent per fingerprint).
func (f *Quotient) Add(key uint64) {
	if f.LoadFactor() > 0.85 {
		f.grow()
	}
	quot, rem := f.split(f.fingerprint(key))
	f.modify(quot, func(entries []fpEntry) []fpEntry {
		for _, e := range entries {
			if e.q == quot && e.r == rem {
				return entries // already present
			}
		}
		f.n++
		return append(entries, fpEntry{q: quot, r: rem})
	})
}

// Remove deletes key's fingerprint, reporting whether it was present. As
// with any approximate filter, remove only keys that were added.
func (f *Quotient) Remove(key uint64) bool {
	quot, rem := f.split(f.fingerprint(key))
	if !f.slots[quot].occupied {
		f.meter.CountRead(rum.Aux, f.slotBytes())
		return false
	}
	removed := false
	f.modify(quot, func(entries []fpEntry) []fpEntry {
		out := entries[:0]
		for _, e := range entries {
			if !removed && e.q == quot && e.r == rem {
				removed = true
				continue
			}
			out = append(out, e)
		}
		return out
	})
	if removed {
		f.n--
	}
	return removed
}

// grow doubles the table, stealing one remainder bit so the fingerprint
// width stays constant, and reinserts every fingerprint recovered from the
// old table.
func (f *Quotient) grow() {
	if f.r <= 1 || f.q >= 30 {
		return // cannot grow further; load will climb
	}
	old := f.slots
	oldMask := uint64(len(old) - 1)
	oldR := f.r

	// Recover all fingerprints by decoding every cluster of the old table.
	var fps []uint64
	visited := make([]bool, len(old))
	for s := uint64(0); s < uint64(len(old)); s++ {
		if !old[s].used || old[s].shifted || visited[s] {
			continue
		}
		// Decode the cluster starting at s using the old geometry.
		i := s
		runHome := s
		first := true
		for old[i].used && !visited[i] {
			visited[i] = true
			if !old[i].cont {
				h := runHome
				if !first {
					h = (runHome + 1) & oldMask
				}
				for !old[h].occupied {
					h = (h + 1) & oldMask
				}
				runHome = h
			}
			fps = append(fps, runHome<<oldR|old[i].remainder)
			first = false
			i = (i + 1) & oldMask
		}
	}

	f.q++
	f.r--
	f.slots = make([]qslot, 1<<f.q)
	f.n = 0
	for _, fp := range fps {
		quot, rem := f.split(fp)
		f.modify(quot, func(entries []fpEntry) []fpEntry {
			for _, e := range entries {
				if e.q == quot && e.r == rem {
					return entries
				}
			}
			f.n++
			return append(entries, fpEntry{q: quot, r: rem})
		})
	}
}
