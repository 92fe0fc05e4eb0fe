// Package column implements the two base-data organizations of Table 1:
// a sorted column (logarithmic search, linear in-place insert) and an
// unsorted column (constant-time append, linear scan). They are the
// "even without any additional secondary index" rows of the table, and they
// also serve as the base data that sparse indexes (zone maps, bitmaps) and
// adaptive indexes (cracking) are layered on.
package column

import (
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
)

// Sorted is a column kept physically sorted by key. Lookups are binary
// searches over the base data itself; inserts shift the tail of the array,
// the Table-1 O(N/B/2) update cost.
type Sorted struct {
	recs  []core.Record
	meter *rum.Meter
}

// NewSorted creates an empty sorted column. If meter is nil a private meter
// is used; pass a shared meter when the column is the base data under an
// index so the composite's accounting stays unified.
func NewSorted(meter *rum.Meter) *Sorted {
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Sorted{meter: meter}
}

// Name returns "sorted-column".
func (s *Sorted) Name() string { return "sorted-column" }

// search returns the insertion position of k, charging one record read per
// binary-search probe.
func (s *Sorted) search(k core.Key) int {
	probes := 0
	i := sort.Search(len(s.recs), func(i int) bool {
		probes++
		return s.recs[i].Key >= k
	})
	s.meter.CountRead(rum.Base, probes*rum.LineSize)
	return i
}

// Get binary-searches the column.
func (s *Sorted) Get(k core.Key) (core.Value, bool) {
	i := s.search(k)
	if i < len(s.recs) && s.recs[i].Key == k {
		s.meter.CountRead(rum.Base, rum.LineCost(core.RecordSize))
		return s.recs[i].Value, true
	}
	return 0, false
}

// Insert places the record at its sorted position, physically shifting every
// record after it — the linear write cost the paper attributes to keeping
// base data sorted.
func (s *Sorted) Insert(k core.Key, v core.Value) error {
	i := s.search(k)
	if i < len(s.recs) && s.recs[i].Key == k {
		return core.ErrKeyExists
	}
	s.recs = append(s.recs, core.Record{})
	copy(s.recs[i+1:], s.recs[i:])
	s.recs[i] = core.Record{Key: k, Value: v}
	moved := len(s.recs) - i
	s.meter.CountWrite(rum.Base, rum.LineCost(moved*core.RecordSize))
	return nil
}

// Update overwrites the record in place: one physical record write.
func (s *Sorted) Update(k core.Key, v core.Value) bool {
	i := s.search(k)
	if i >= len(s.recs) || s.recs[i].Key != k {
		return false
	}
	s.recs[i].Value = v
	s.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete removes the record, shifting the tail down to stay dense and sorted.
func (s *Sorted) Delete(k core.Key) bool {
	i := s.search(k)
	if i >= len(s.recs) || s.recs[i].Key != k {
		return false
	}
	copy(s.recs[i:], s.recs[i+1:])
	s.recs = s.recs[:len(s.recs)-1]
	moved := len(s.recs) - i
	if moved < 1 {
		moved = 1
	}
	s.meter.CountWrite(rum.Base, rum.LineCost(moved*core.RecordSize))
	return true
}

// RangeScan binary-searches for lo and reads sequentially to hi: the
// Table-1 O(log2 N + m) range cost.
func (s *Sorted) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	i := s.search(lo)
	n := 0
	for ; i < len(s.recs) && s.recs[i].Key <= hi; i++ {
		s.meter.CountRead(rum.Base, core.RecordSize)
		n++
		if !emit(s.recs[i].Key, s.recs[i].Value) {
			break
		}
	}
	return n
}

// Len returns the record count.
func (s *Sorted) Len() int { return len(s.recs) }

// Meter returns the RUM accounting.
func (s *Sorted) Meter() *rum.Meter { return s.meter }

// Size reports pure base data: a sorted column has MO exactly 1.0.
func (s *Sorted) Size() rum.SizeInfo {
	return rum.SizeInfo{BaseBytes: uint64(len(s.recs)) * core.RecordSize}
}

// BulkLoad replaces the contents with the presorted recs, charging one
// sequential write pass.
func (s *Sorted) BulkLoad(recs []core.Record) error {
	s.recs = make([]core.Record, len(recs))
	copy(s.recs, recs)
	s.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	return nil
}

// Unsorted is a heap-ordered column: inserts append, every search scans.
type Unsorted struct {
	recs  []core.Record
	pos   map[core.Key]int // row id per key; maintained for O(1) membership in Insert
	meter *rum.Meter
}

// NewUnsorted creates an empty unsorted column. The pos map is bookkeeping
// for duplicate rejection only; operations still pay scan-cost accounting as
// the physical organization dictates.
func NewUnsorted(meter *rum.Meter) *Unsorted {
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Unsorted{meter: meter, pos: make(map[core.Key]int)}
}

// Name returns "unsorted-column".
func (u *Unsorted) Name() string { return "unsorted-column" }

// scan locates k by a linear pass, charging the scanned prefix.
func (u *Unsorted) scan(k core.Key) int {
	i, ok := u.pos[k]
	if !ok {
		u.meter.CountRead(rum.Base, len(u.recs)*core.RecordSize)
		return -1
	}
	u.meter.CountRead(rum.Base, (i+1)*core.RecordSize)
	return i
}

// Get scans for k.
func (u *Unsorted) Get(k core.Key) (core.Value, bool) {
	i := u.scan(k)
	if i < 0 {
		return 0, false
	}
	return u.recs[i].Value, true
}

// Insert appends: the O(1) update cost of Table 1.
func (u *Unsorted) Insert(k core.Key, v core.Value) error {
	if _, ok := u.pos[k]; ok {
		return core.ErrKeyExists
	}
	u.pos[k] = len(u.recs)
	u.recs = append(u.recs, core.Record{Key: k, Value: v})
	u.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return nil
}

// Update scans for k and overwrites in place.
func (u *Unsorted) Update(k core.Key, v core.Value) bool {
	i := u.scan(k)
	if i < 0 {
		return false
	}
	u.recs[i].Value = v
	u.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete scans for k and fills the hole with the last record.
func (u *Unsorted) Delete(k core.Key) bool {
	i := u.scan(k)
	if i < 0 {
		return false
	}
	last := len(u.recs) - 1
	moved := u.recs[last]
	u.recs[i] = moved
	u.recs = u.recs[:last]
	u.pos[moved.Key] = i
	delete(u.pos, k)
	u.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// RangeScan must read the whole column: the Table-1 O(N/B) range cost.
// Results are emitted in physical (not key) order.
func (u *Unsorted) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	u.meter.CountRead(rum.Base, len(u.recs)*core.RecordSize)
	n := 0
	for _, r := range u.recs {
		if r.Key >= lo && r.Key <= hi {
			n++
			if !emit(r.Key, r.Value) {
				break
			}
		}
	}
	return n
}

// Len returns the record count.
func (u *Unsorted) Len() int { return len(u.recs) }

// Meter returns the RUM accounting.
func (u *Unsorted) Meter() *rum.Meter { return u.meter }

// Size reports pure base data: MO is exactly 1.0.
func (u *Unsorted) Size() rum.SizeInfo {
	return rum.SizeInfo{BaseBytes: uint64(len(u.recs)) * core.RecordSize}
}

// BulkLoad replaces the contents with recs in one append pass — the O(1)
// (amortized per record) bulk-creation row of Table 1.
func (u *Unsorted) BulkLoad(recs []core.Record) error {
	u.recs = make([]core.Record, len(recs))
	copy(u.recs, recs)
	u.pos = make(map[core.Key]int, len(recs))
	for i, r := range recs {
		u.pos[r.Key] = i
	}
	u.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	return nil
}
