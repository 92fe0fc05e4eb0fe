package bitmap

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
)

const wordBytes = 8

// deltaEntrySize accounts one pending update: position (8) + set/clear flag,
// padded to a word.
const deltaEntrySize = 16

// Index is a bitmap index used as a complete store over a *low-cardinality*
// attribute: record keys are row positions and values are attribute codes in
// [0, cardinality). Insert reduces arbitrary values modulo the cardinality
// (bitmap indexes model categorical attributes; the reduction is documented
// lossiness, Get returns the stored code).
//
// Reads probe the compressed vectors (cheap space, expensive point access);
// updates are absorbed in per-value delta sets and merged into the
// compressed vectors once a delta exceeds MergeThreshold — the paper's
// update-friendly bitmap design. Not safe for concurrent use.
type Index struct {
	cardinality int
	vectors     []*Compressed
	deltas      []map[uint64]bool // position → set (true) / clear (false)
	deltaLive   []int             // net live rows per value in the delta
	count       int
	maxRow      uint64
	threshold   int
	meter       *rum.Meter
}

// Config tunes the index.
type Config struct {
	// Cardinality is the attribute domain size (default 16).
	Cardinality int
	// MergeThreshold is the pending-update count that triggers merging a
	// delta into its compressed vector (default 256).
	MergeThreshold int
}

// New creates an empty index. A nil meter gets a private one.
func New(cfg Config, meter *rum.Meter) *Index {
	if cfg.Cardinality < 2 {
		cfg.Cardinality = 16
	}
	if cfg.MergeThreshold < 1 {
		cfg.MergeThreshold = 256
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	x := &Index{
		cardinality: cfg.Cardinality,
		threshold:   cfg.MergeThreshold,
		meter:       meter,
	}
	x.initVectors()
	return x
}

func (x *Index) initVectors() {
	x.vectors = make([]*Compressed, x.cardinality)
	x.deltas = make([]map[uint64]bool, x.cardinality)
	x.deltaLive = make([]int, x.cardinality)
	for v := range x.vectors {
		x.vectors[v] = FromPositions(nil, 0)
		x.deltas[v] = make(map[uint64]bool)
	}
}

// Name identifies the index and its cardinality.
func (x *Index) Name() string { return fmt.Sprintf("bitmap(card=%d)", x.cardinality) }

// Len returns the number of live rows.
func (x *Index) Len() int { return x.count }

// Meter returns the RUM accounting.
func (x *Index) Meter() *rum.Meter { return x.meter }

// Size reports the logical rows as base bytes, capped at the stored
// footprint — compression can store less than the logical data, the point of
// the space-optimized corner — with everything stored beyond that as
// auxiliary bytes.
func (x *Index) Size() rum.SizeInfo {
	stored := uint64(0)
	for v := range x.vectors {
		stored += x.vectors[v].SizeBytes()
		stored += uint64(len(x.deltas[v])) * deltaEntrySize
	}
	base := uint64(x.count) * core.RecordSize
	if base > stored {
		base = stored
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: stored - base}
}

// testValue reports whether row pos currently has attribute v, charging the
// probe.
func (x *Index) testValue(v int, pos uint64) bool {
	if set, ok := x.deltas[v][pos]; ok {
		x.meter.CountRead(rum.Aux, rum.LineSize)
		return set
	}
	x.meter.CountRead(rum.Aux, rum.LineSize) // delta miss probe
	set, scanned := x.vectors[v].Test(pos)
	x.meter.CountRead(rum.Aux, scanned*wordBytes)
	return set
}

// find returns the attribute code of row k, or -1.
func (x *Index) find(k core.Key) int {
	for v := 0; v < x.cardinality; v++ {
		if x.testValue(v, k) {
			return v
		}
	}
	return -1
}

// Get probes each value's vector for the row bit.
func (x *Index) Get(k core.Key) (core.Value, bool) {
	v := x.find(k)
	if v < 0 {
		return 0, false
	}
	return core.Value(v), true
}

// setDelta records a pending bit change and merges past the threshold.
func (x *Index) setDelta(v int, pos uint64, set bool) {
	x.deltas[v][pos] = set
	if set {
		x.deltaLive[v]++
	} else {
		x.deltaLive[v]--
	}
	x.meter.CountWrite(rum.Aux, rum.LineSize)
	if len(x.deltas[v]) >= x.threshold {
		x.merge(v)
	}
}

// merge folds value v's delta into its compressed vector, rebuilding it —
// the "gradually merged" consolidation whose cost is the deferred update
// overhead.
func (x *Index) merge(v int) {
	old := x.vectors[v]
	pos := old.Positions()
	x.meter.CountRead(rum.Aux, old.Words()*wordBytes)
	x.meter.CountRead(rum.Aux, len(x.deltas[v])*deltaEntrySize)

	keep := pos[:0]
	for _, p := range pos {
		if set, ok := x.deltas[v][p]; ok && !set {
			continue // cleared
		}
		keep = append(keep, p)
	}
	for p, set := range x.deltas[v] {
		if set {
			if s, _ := old.Test(p); !s {
				keep = append(keep, p)
			}
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	nbits := x.maxRow + 1
	x.vectors[v] = FromPositions(keep, nbits)
	x.deltas[v] = make(map[uint64]bool)
	x.deltaLive[v] = 0
	x.meter.CountWrite(rum.Aux, int(x.vectors[v].SizeBytes()))
}

// Insert stores row k with attribute code v % cardinality. Uniqueness
// requires probing every value's vector — a row could exist under any code.
func (x *Index) Insert(k core.Key, v core.Value) error {
	code := int(v % core.Value(x.cardinality))
	if x.find(k) >= 0 {
		return core.ErrKeyExists
	}
	if k > x.maxRow {
		x.maxRow = k
	}
	x.setDelta(code, k, true)
	x.count++
	return nil
}

// Update moves row k to a new attribute code, clearing its old bit and
// setting the new one (two bitvector updates, as in the paper's
// direct-address analysis of content-addressed structures).
func (x *Index) Update(k core.Key, v core.Value) bool {
	old := x.find(k)
	if old < 0 {
		return false
	}
	code := int(v % core.Value(x.cardinality))
	if code == old {
		return true
	}
	x.setDelta(old, k, false)
	x.setDelta(code, k, true)
	return true
}

// Delete clears row k's bit.
func (x *Index) Delete(k core.Key) bool {
	old := x.find(k)
	if old < 0 {
		return false
	}
	x.setDelta(old, k, false)
	x.count--
	return true
}

// RangeScan emits rows lo..hi in ascending row order with their attribute
// codes, decoding every vector across the range.
func (x *Index) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	type hit struct {
		pos uint64
		val core.Value
	}
	var hits []hit
	for v := 0; v < x.cardinality; v++ {
		scanned := x.vectors[v].Iterate(func(p uint64) bool {
			if p > hi {
				return false
			}
			if p >= lo {
				if set, ok := x.deltas[v][p]; !ok || set {
					hits = append(hits, hit{p, core.Value(v)})
				}
			}
			return true
		})
		x.meter.CountRead(rum.Aux, scanned*wordBytes)
		for p, set := range x.deltas[v] {
			if set && p >= lo && p <= hi {
				if s, _ := x.vectors[v].Test(p); !s {
					hits = append(hits, hit{p, core.Value(v)})
				}
			}
		}
		x.meter.CountRead(rum.Aux, len(x.deltas[v])*deltaEntrySize)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
	emitted := 0
	for _, h := range hits {
		emitted++
		if !emit(h.pos, h.val) {
			break
		}
	}
	return emitted
}

// Rows calls emit with every row whose attribute code equals v — the native
// bitmap-index query shape.
func (x *Index) Rows(v core.Value, emit func(pos uint64) bool) int {
	code := int(v % core.Value(x.cardinality))
	n := 0
	scanned := x.vectors[code].Iterate(func(p uint64) bool {
		if set, ok := x.deltas[code][p]; ok && !set {
			return true
		}
		n++
		return emit(p)
	})
	x.meter.CountRead(rum.Aux, scanned*wordBytes)
	for p, set := range x.deltas[code] {
		if set {
			if s, _ := x.vectors[code].Test(p); !s {
				n++
				if !emit(p) {
					break
				}
			}
		}
	}
	return n
}

// BulkLoad replaces the contents with the key-sorted recs.
func (x *Index) BulkLoad(recs []core.Record) error {
	perValue := make([][]uint64, x.cardinality)
	x.maxRow = 0
	for _, r := range recs {
		code := int(r.Value % core.Value(x.cardinality))
		perValue[code] = append(perValue[code], r.Key)
		if r.Key > x.maxRow {
			x.maxRow = r.Key
		}
	}
	x.initVectors()
	for v := range perValue {
		x.vectors[v] = FromPositions(perValue[v], x.maxRow+1)
		x.meter.CountWrite(rum.Aux, int(x.vectors[v].SizeBytes()))
	}
	x.count = len(recs)
	return nil
}
