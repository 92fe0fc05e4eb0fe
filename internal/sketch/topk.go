package sketch

import (
	"math/bits"
	"slices"
)

// TopK tracks the heaviest keys of a stream with bounded memory: exact
// per-key counters for the keys it retains, and a deterministic compaction
// that drops the lightest entries when the table overflows. It is the
// heavy-hitter half of the workload fingerprinter — the count-min sketch
// answers "how often was this key seen", TopK answers "which keys dominate".
//
// Determinism contract. Items ranks by (count desc, key asc), so the output
// is a pure function of the retained counter table. Compaction happens only
// when an Add carries the table past its slack bound, and keeps the top
// retain entries under the same (count desc, key asc) order — deterministic
// given the table contents.
//
// Accuracy. Dropping a light entry forgets its count; if the key returns it
// restarts from zero. Heavy hitters under skew re-arrive constantly, so
// their counters are exact in practice; uniform tails churn through the
// slack region. This is the usual space-saving trade, biased toward
// simplicity and determinism over tight error bounds.
//
// Layout. The table is two dense parallel arrays in no particular order —
// at most slack+1 entries — found through a small open-addressed index sized
// once for that bound, so Add is a multiply, a probe and an increment. A
// skewed stream over a large key space overflows the table every few dozen
// operations, so compaction does not sort: it selects the cut (the
// retain-th largest count), keeps every entry above it, and fills the
// remainder with the smallest keys among the entries exactly at it.
type TopK struct {
	k      int
	retain int // table size kept after a compaction
	slack  int // table size that triggers a compaction

	keys   []uint64 // keys[i] has been charged counts[i]
	counts []uint64
	// index maps a key to its position: linear probing over a power-of-two
	// number of slots, each holding position+1 (0 = empty), never more than
	// half full. shift turns a key's hash into a slot number.
	index []uint32
	shift uint

	// scratch is the reusable rank buffer of the read path (ItemsInto); sel is
	// compaction's selection buffer. Neither path allocates in steady state.
	scratch []KeyCount
	sel     []uint64
}

// KeyCount is one ranked heavy hitter.
type KeyCount struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
}

// NewTopK tracks the top k keys (minimum 1), retaining 4k counters and
// compacting at 8k — enough slack that a heavy hitter's counter survives
// tail churn.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	t := &TopK{k: k, retain: 4 * k, slack: 8 * k}
	t.keys = make([]uint64, 0, t.slack+1)
	t.counts = make([]uint64, 0, t.slack+1)
	t.sel = make([]uint64, 0, t.slack+1)
	// The smallest power-of-two slot count that leaves the index at most half
	// full with slack+1 entries.
	log := uint(bits.Len(uint(2*(t.slack+1) - 1)))
	t.index, t.shift = make([]uint32, 1<<log), 64-log
	return t
}

// Add charges delta to key, compacting the table if it overflowed.
func (t *TopK) Add(key uint64, delta uint64) {
	t.charge(key, delta)
	if len(t.keys) > t.slack {
		t.compact()
	}
}

// Clear drops every counter, keeping capacity — the rotation primitive.
func (t *TopK) Clear() {
	t.keys, t.counts = t.keys[:0], t.counts[:0]
	clear(t.index)
}

// Len returns the number of retained counters.
func (t *TopK) Len() int { return len(t.keys) }

// slot returns the index slot that holds key's position, or the empty slot
// where it belongs.
func (t *TopK) slot(key uint64) int {
	mask := len(t.index) - 1
	s := int(key * 0x9e3779b97f4a7c15 >> t.shift)
	for {
		p := t.index[s]
		if p == 0 || t.keys[p-1] == key {
			return s
		}
		s = (s + 1) & mask
	}
}

// charge adds delta to key's counter, appending the counter if key is new.
func (t *TopK) charge(key, delta uint64) {
	s := t.slot(key)
	if p := t.index[s]; p != 0 {
		t.counts[p-1] += delta
		return
	}
	t.keys = append(t.keys, key)
	t.counts = append(t.counts, delta)
	t.index[s] = uint32(len(t.keys))
}

// reindex rebuilds the index from the table.
func (t *TopK) reindex() {
	clear(t.index)
	for i, key := range t.keys {
		t.index[t.slot(key)] = uint32(i + 1)
	}
}

// compact keeps the heaviest retain entries under (count desc, key asc)
// without ranking the rest: every entry heavier than the cut count stays,
// and the smallest keys among those exactly at it fill what is left.
func (t *TopK) compact() {
	t.sel = append(t.sel[:0], t.counts...)
	cut := selectNth(t.sel, len(t.sel)-t.retain)
	above, ties := 0, t.sel[:0] // the counts are spent; at most as many ties
	for i, c := range t.counts {
		if c > cut {
			above++
		} else if c == cut {
			ties = append(ties, t.keys[i])
		}
	}
	maxTie := selectNth(ties, t.retain-above-1)
	w := 0
	for i, c := range t.counts {
		if c > cut || c == cut && t.keys[i] <= maxTie {
			t.keys[w], t.counts[w] = t.keys[i], c
			w++
		}
	}
	t.keys, t.counts = t.keys[:w], t.counts[:w]
	t.reindex()
}

// selectNth returns the value a sorted copy of v would hold at index n
// (0 <= n < len(v)), reordering v: Hoare's quickselect around a
// median-of-three pivot. The answer is a property of the multiset, so the
// pivot choice cannot leak into it.
func selectNth(v []uint64, n int) uint64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] <= pivot <= v[i..hi], and anything between j and i equals it.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return v[n]
		}
	}
	return v[n]
}

// rank appends every entry to dst and sorts by (count desc, key asc). It
// serves the read path only — a ranking per window rotation or scrape, not
// per operation.
func (t *TopK) rank(dst []KeyCount) []KeyCount {
	for i, key := range t.keys {
		dst = append(dst, KeyCount{Key: key, Count: t.counts[i]})
	}
	slices.SortFunc(dst, func(a, b KeyCount) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return dst
}

// Items returns the top k entries, heaviest first, ties broken by key.
func (t *TopK) Items() []KeyCount {
	return append([]KeyCount(nil), t.ItemsInto(nil)...)
}

// ItemsInto appends the top k entries to dst and returns it — the zero-alloc
// read path: with a nil dst it ranks into the tracker's reusable scratch
// buffer and returns a view of it, valid until the next ItemsInto.
func (t *TopK) ItemsInto(dst []KeyCount) []KeyCount {
	t.scratch = t.rank(t.scratch[:0])
	top := t.scratch
	if len(top) > t.k {
		top = top[:t.k]
	}
	if dst == nil {
		return top
	}
	return append(dst, top...)
}
