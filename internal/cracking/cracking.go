// Package cracking implements database cracking (Idreos, Kersten, Manegold,
// CIDR 2007), the paper's flagship *adaptive* access method in the middle of
// the RUM triangle: each incoming query physically partitions ("cracks") the
// column around its predicate bounds, so index structure accrues exactly
// where the workload looks. Early queries pay near-scan cost plus swap
// writes; repeated queries over the same region converge toward index-probe
// cost — read overhead is traded against update overhead and a slowly
// growing cracker index over time, the dynamic RUM behaviour of Section 4.
//
// Inserts are buffered in a pending tail that every query also scans;
// deletes are tombstoned; both are folded in by a full reorganization when
// the pending set passes a threshold (cracking literature calls this
// merging; the reorganization resets cracking progress for simplicity).
package cracking

import (
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
)

// boundary marks that recs[start:] (up to the next boundary) holds keys
// >= key.
type boundary struct {
	key   core.Key
	start int
}

const boundarySize = 16 // key (8) + offset (8)

// Stats counts adaptive reorganization work.
type Stats struct {
	Cracks uint64 // partition operations performed
	Swaps  uint64 // record swaps during partitioning
	Merges uint64 // pending-tail reorganizations
}

// Store is a cracked column store. Not safe for concurrent use.
type Store struct {
	recs      []core.Record // the cracker column, physically reorganized
	bounds    []boundary    // cracker index, sorted by key; bounds[0] = {0,0}
	pending   []core.Record // buffered inserts, scanned by every query
	deleted   map[core.Key]bool
	count     int
	threshold int
	stats     Stats
	meter     *rum.Meter
}

// New creates an empty store that reorganizes once mergeThreshold records are
// pending (default 4096). A nil meter gets a private one.
func New(mergeThreshold int, meter *rum.Meter) *Store {
	if mergeThreshold < 1 {
		mergeThreshold = 4096
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Store{
		bounds:    []boundary{{key: 0, start: 0}},
		deleted:   make(map[core.Key]bool),
		threshold: mergeThreshold,
		meter:     meter,
	}
}

// Name returns "cracking".
func (s *Store) Name() string { return "cracking" }

// Len returns the number of live records.
func (s *Store) Len() int { return s.count }

// Stats returns the adaptive work counters.
func (s *Store) Stats() Stats { return s.stats }

// Meter returns the RUM accounting.
func (s *Store) Meter() *rum.Meter { return s.meter }

// Pieces returns the number of cracked pieces (testing/experiments).
func (s *Store) Pieces() int { return len(s.bounds) }

// Size reports live records as base bytes; dead records still in the
// column, the pending tail, tombstones, and the cracker index as auxiliary
// bytes.
func (s *Store) Size() rum.SizeInfo {
	stored := uint64(len(s.recs)+len(s.pending))*core.RecordSize +
		uint64(len(s.bounds))*boundarySize +
		uint64(len(s.deleted))*8
	base := uint64(s.count) * core.RecordSize
	if base > stored {
		base = stored
	}
	return rum.SizeInfo{BaseBytes: base, AuxBytes: stored - base}
}

// pieceFor returns the index into bounds of the piece whose key range
// contains k, charging the binary probes on the cracker index.
func (s *Store) pieceFor(k core.Key) int {
	probes := 0
	i := sort.Search(len(s.bounds), func(i int) bool {
		probes++
		return s.bounds[i].key > k
	}) - 1
	s.meter.CountRead(rum.Aux, probes*rum.LineSize)
	return i
}

// crack partitions the column so that all keys < k precede position p and
// all keys >= k follow it, returning p. The partition work — reading the
// piece and swapping misplaced records — is the adaptive indexing cost.
func (s *Store) crack(k core.Key) int {
	bi := s.pieceFor(k)
	b := s.bounds[bi]
	if b.key == k {
		return b.start // already cracked on k
	}
	end := len(s.recs)
	if bi+1 < len(s.bounds) {
		end = s.bounds[bi+1].start
	}
	// Partition recs[b.start:end) around k.
	s.meter.CountRead(rum.Base, (end-b.start)*core.RecordSize)
	i, j := b.start, end-1
	swaps := uint64(0)
	for i <= j {
		for i <= j && s.recs[i].Key < k {
			i++
		}
		for i <= j && s.recs[j].Key >= k {
			j--
		}
		if i < j {
			s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
			swaps++
			i++
			j--
		}
	}
	s.meter.CountWrite(rum.Base, int(swaps)*2*rum.LineSize)
	s.meter.CountWrite(rum.Aux, rum.LineCost(boundarySize))
	s.stats.Cracks++
	s.stats.Swaps += swaps
	// Insert the new boundary after bi.
	s.bounds = append(s.bounds, boundary{})
	copy(s.bounds[bi+2:], s.bounds[bi+1:])
	s.bounds[bi+1] = boundary{key: k, start: i}
	return i
}

// segment cracks out [lo, hi] and returns the covered slice indexes.
func (s *Store) segment(lo, hi core.Key) (int, int) {
	p1 := s.crack(lo)
	p2 := len(s.recs)
	if hi != ^core.Key(0) {
		p2 = s.crack(hi + 1)
	}
	return p1, p2
}

// scanPending charges a pass over the pending tail and returns the index of
// k in it, or -1.
func (s *Store) scanPending(k core.Key) int {
	s.meter.CountRead(rum.Base, len(s.pending)*core.RecordSize)
	for i, r := range s.pending {
		if r.Key == k {
			return i
		}
	}
	return -1
}

// Get cracks the column on [k, k+1) and scans the pending tail.
func (s *Store) Get(k core.Key) (core.Value, bool) {
	if i := s.scanPending(k); i >= 0 {
		return s.pending[i].Value, true
	}
	if s.deleted[k] {
		return 0, false
	}
	p1, p2 := s.segment(k, k)
	for i := p1; i < p2; i++ {
		s.meter.CountRead(rum.Base, core.RecordSize)
		if s.recs[i].Key == k {
			return s.recs[i].Value, true
		}
	}
	return 0, false
}

// Insert appends to the pending tail, reorganizing past the threshold.
func (s *Store) Insert(k core.Key, v core.Value) error {
	if i := s.scanPending(k); i >= 0 {
		return core.ErrKeyExists
	}
	if !s.deleted[k] {
		// Membership in the cracked column requires a (cracking) lookup.
		p1, p2 := s.segment(k, k)
		for i := p1; i < p2; i++ {
			s.meter.CountRead(rum.Base, core.RecordSize)
			if s.recs[i].Key == k {
				return core.ErrKeyExists
			}
		}
	}
	// A tombstone for k (if any) is kept: it hides the stale copy still
	// sitting in the cracked column, while the fresh record lives in the
	// pending tail, which every read consults first.
	s.pending = append(s.pending, core.Record{Key: k, Value: v})
	s.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	s.count++
	if len(s.pending) >= s.threshold {
		s.merge()
	}
	return nil
}

// merge folds the pending tail and tombstones into a fresh column,
// resetting cracking progress.
func (s *Store) merge() {
	live := make([]core.Record, 0, len(s.recs)+len(s.pending))
	for _, r := range s.recs {
		if !s.deleted[r.Key] {
			live = append(live, r)
		}
	}
	live = append(live, s.pending...)
	s.meter.CountRead(rum.Base, (len(s.recs)+len(s.pending))*core.RecordSize)
	s.meter.CountWrite(rum.Base, len(live)*core.RecordSize)
	s.recs = live
	s.pending = nil
	s.deleted = make(map[core.Key]bool)
	s.bounds = []boundary{{key: 0, start: 0}}
	s.stats.Merges++
}

// Update overwrites the record in place (cracking to locate it).
func (s *Store) Update(k core.Key, v core.Value) bool {
	if i := s.scanPending(k); i >= 0 {
		s.pending[i].Value = v
		s.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
		return true
	}
	if s.deleted[k] {
		return false
	}
	p1, p2 := s.segment(k, k)
	for i := p1; i < p2; i++ {
		s.meter.CountRead(rum.Base, core.RecordSize)
		if s.recs[i].Key == k {
			s.recs[i].Value = v
			s.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
			return true
		}
	}
	return false
}

// Delete tombstones the record.
func (s *Store) Delete(k core.Key) bool {
	if i := s.scanPending(k); i >= 0 {
		last := len(s.pending) - 1
		s.pending[i] = s.pending[last]
		s.pending = s.pending[:last]
		s.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
		s.count--
		return true
	}
	if s.deleted[k] {
		return false
	}
	p1, p2 := s.segment(k, k)
	for i := p1; i < p2; i++ {
		s.meter.CountRead(rum.Base, core.RecordSize)
		if s.recs[i].Key == k {
			s.deleted[k] = true
			s.meter.CountWrite(rum.Aux, rum.LineCost(8))
			s.count--
			return true
		}
	}
	return false
}

// RangeScan cracks out [lo, hi]; the matching segment is contiguous but
// internally unordered, so it is sorted in memory before emission (CPU, not
// I/O), then merged with the pending tail.
func (s *Store) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	p1, p2 := s.segment(lo, hi)
	s.meter.CountRead(rum.Base, (p2-p1)*core.RecordSize)
	out := make([]core.Record, 0, p2-p1)
	for i := p1; i < p2; i++ {
		if !s.deleted[s.recs[i].Key] {
			out = append(out, s.recs[i])
		}
	}
	s.meter.CountRead(rum.Base, len(s.pending)*core.RecordSize)
	for _, r := range s.pending {
		if r.Key >= lo && r.Key <= hi {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	emitted := 0
	for _, r := range out {
		emitted++
		if !emit(r.Key, r.Value) {
			break
		}
	}
	return emitted
}

// BulkLoad replaces the contents with recs (sorted or not: cracking does not
// care — structure accrues with queries).
func (s *Store) BulkLoad(recs []core.Record) error {
	s.recs = make([]core.Record, len(recs))
	copy(s.recs, recs)
	s.pending = nil
	s.deleted = make(map[core.Key]bool)
	s.bounds = []boundary{{key: 0, start: 0}}
	s.count = len(recs)
	s.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	return nil
}
