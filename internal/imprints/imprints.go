// Package imprints implements Column Imprints (Sidirourgos & Kersten,
// SIGMOD 2013), one of the space-optimized secondary indexes Section 4 of
// the paper cites: for every cache line of an *unclustered* column, a
// 64-bit imprint records which value bins occur in that line. A range
// predicate over the value compiles to a bitmask; only lines whose imprint
// intersects the mask are read.
//
// RUM position: the index is a few bits per record (consecutive identical
// imprints are run-length collapsed), appends extend it in O(1), and reads
// skip the bulk of a scan — space-optimized read pruning for value
// predicates, the same corner as zone maps but effective on *unsorted*
// data where zone min/max summaries cannot prune.
package imprints

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
)

// recordsPerLine is how many 16-byte records share one 64-byte cache line.
const recordsPerLine = rum.LineSize / core.RecordSize

// bins is the imprint width: one bit per value bin.
const bins = 64

// imprintEntry is one run of identical imprints (the paper's cache-line
// dictionary, simplified to RLE).
type imprintEntry struct {
	mask  uint64
	count uint32 // consecutive lines sharing the mask
}

// imprintEntrySize is the accounted footprint of one run: mask + counter.
const imprintEntrySize = 12

// Index is a column-imprints index over (row, value) records stored in
// arrival order. It is a *secondary* index: the native query is a value
// predicate (ScanValues); keys are row identifiers. Not safe for concurrent
// use.
type Index struct {
	recs    []core.Record
	edges   [bins - 1]uint64 // bin b holds values in (edges[b-1], edges[b]]
	sampled bool
	runs    []imprintEntry
	lastImp uint64 // imprint of the (possibly partial) last line
	meter   *rum.Meter
}

// New creates an empty index. Bin edges are sampled on the first BulkLoad;
// before that, values map by their high bits. A nil meter gets a private
// one.
func New(meter *rum.Meter) *Index {
	if meter == nil {
		meter = &rum.Meter{}
	}
	x := &Index{meter: meter}
	for i := range x.edges {
		// Default equi-width edges over the full domain.
		x.edges[i] = (uint64(i+1) << 58)
	}
	return x
}

// Name returns "imprints".
func (x *Index) Name() string { return "imprints" }

// Len returns the number of records.
func (x *Index) Len() int { return len(x.recs) }

// Meter returns the RUM accounting.
func (x *Index) Meter() *rum.Meter { return x.meter }

// Size reports records as base bytes and the imprint runs plus bin edges as
// auxiliary bytes.
func (x *Index) Size() rum.SizeInfo {
	return rum.SizeInfo{
		BaseBytes: uint64(len(x.recs)) * core.RecordSize,
		AuxBytes:  uint64(len(x.runs))*imprintEntrySize + (bins-1)*8,
	}
}

// Runs returns the number of RLE imprint runs (compression inspection).
func (x *Index) Runs() int { return len(x.runs) }

// binOf maps a value to its bin.
func (x *Index) binOf(v uint64) int {
	return sort.Search(bins-1, func(i int) bool { return v <= x.edges[i] })
}

// maskFor compiles a value range into an imprint bitmask.
func (x *Index) maskFor(vlo, vhi uint64) uint64 {
	lo, hi := x.binOf(vlo), x.binOf(vhi)
	var m uint64
	for b := lo; b <= hi; b++ {
		m |= 1 << b
	}
	return m
}

// appendImprint registers the imprint of a completed or partial last line.
func (x *Index) pushRun(mask uint64) {
	if n := len(x.runs); n > 0 && x.runs[n-1].mask == mask {
		x.runs[n-1].count++
		return
	}
	x.runs = append(x.runs, imprintEntry{mask: mask, count: 1})
}

// rebuildLastRun replaces the imprint of the last (partial) line.
func (x *Index) setLastLineMask(mask uint64) {
	n := len(x.runs)
	if n == 0 {
		x.pushRun(mask)
		return
	}
	last := &x.runs[n-1]
	if last.mask == mask {
		return
	}
	if last.count == 1 {
		x.runs = x.runs[:n-1]
	} else {
		last.count--
	}
	x.pushRun(mask)
}

// Insert appends a record, extending the last line's imprint in O(1) —
// the append-friendliness the paper credits imprints with.
func (x *Index) Insert(row core.Key, v core.Value) {
	x.recs = append(x.recs, core.Record{Key: row, Value: v})
	bit := uint64(1) << x.binOf(v)
	if (len(x.recs)-1)%recordsPerLine == 0 {
		// New line begins.
		x.lastImp = bit
		x.pushRun(bit)
	} else {
		x.lastImp |= bit
		x.setLastLineMask(x.lastImp)
	}
	x.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	x.meter.CountWrite(rum.Aux, rum.LineCost(imprintEntrySize))
}

// BulkLoad replaces the contents with recs (any order — imprints do not
// need clustering), sampling bin edges from the data.
func (x *Index) BulkLoad(recs []core.Record) error {
	x.recs = make([]core.Record, len(recs))
	copy(x.recs, recs)
	x.runs = nil
	x.sampleEdges()
	for start := 0; start < len(x.recs); start += recordsPerLine {
		end := start + recordsPerLine
		if end > len(x.recs) {
			end = len(x.recs)
		}
		var mask uint64
		for _, r := range x.recs[start:end] {
			mask |= 1 << x.binOf(r.Value)
		}
		x.lastImp = mask
		x.pushRun(mask)
	}
	x.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	x.meter.CountWrite(rum.Aux, len(x.runs)*imprintEntrySize)
	return nil
}

// sampleEdges picks 63 equi-depth bin edges from the loaded values.
func (x *Index) sampleEdges() {
	if len(x.recs) == 0 {
		x.sampled = false
		return
	}
	vals := make([]uint64, len(x.recs))
	for i, r := range x.recs {
		vals[i] = r.Value
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := range x.edges {
		x.edges[i] = vals[(i+1)*len(vals)/bins]
	}
	x.sampled = true
}

// ScanValues emits every record whose value lies in [vlo, vhi], in arrival
// order, reading only the cache lines whose imprint intersects the query
// mask. The imprint runs themselves are streamed (charged as auxiliary
// reads).
func (x *Index) ScanValues(vlo, vhi uint64, emit func(row core.Key, v core.Value) bool) int {
	mask := x.maskFor(vlo, vhi)
	x.meter.CountRead(rum.Aux, len(x.runs)*imprintEntrySize)
	emitted := 0
	line := 0
	for _, run := range x.runs {
		if run.mask&mask == 0 {
			line += int(run.count) // whole run pruned
			continue
		}
		for c := uint32(0); c < run.count; c++ {
			start := (line + int(c)) * recordsPerLine
			end := start + recordsPerLine
			if start >= len(x.recs) {
				break
			}
			if end > len(x.recs) {
				end = len(x.recs)
			}
			x.meter.CountRead(rum.Base, rum.LineSize)
			for _, r := range x.recs[start:end] {
				if r.Value >= vlo && r.Value <= vhi {
					emitted++
					if !emit(r.Key, r.Value) {
						return emitted
					}
				}
			}
		}
		line += int(run.count)
	}
	return emitted
}

// FullScan reads every record (the comparator ScanValues is measured
// against).
func (x *Index) FullScan(vlo, vhi uint64, emit func(row core.Key, v core.Value) bool) int {
	x.meter.CountRead(rum.Base, len(x.recs)*core.RecordSize)
	n := 0
	for _, r := range x.recs {
		if r.Value >= vlo && r.Value <= vhi {
			n++
			if !emit(r.Key, r.Value) {
				break
			}
		}
	}
	return n
}

// String describes the index shape.
func (x *Index) String() string {
	return fmt.Sprintf("imprints(n=%d, runs=%d, %.2f bits/record)",
		len(x.recs), len(x.runs),
		float64(len(x.runs)*imprintEntrySize*8)/float64(max(len(x.recs), 1)))
}
