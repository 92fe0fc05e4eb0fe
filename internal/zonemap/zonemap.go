// Package zonemap implements zone maps (a.k.a. small materialized
// aggregates / block-range metadata), the Table-1 sparse index: the base
// data is split into partitions of P records and only a per-partition
// [min, max] summary is kept. The index is tiny — the space-optimized right
// corner of Figure 1 — while every query must scan the summaries (O(N/P/B))
// plus the qualifying partitions.
//
// Partitions hold clustered, disjoint key ranges. Records inside a partition
// are unordered (appends are cheap); range scans sort each qualifying
// partition before emitting, which costs computation, not I/O — the paper's
// "use computation and knowledge about the data to reduce the RUM
// overheads".
package zonemap

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
)

// zoneMetaSize is the accounted footprint of one zone summary:
// min (8) + max (8) + count (4) + partition pointer (4).
const zoneMetaSize = 24

type zone struct {
	min, max core.Key
	recs     []core.Record
}

// Map is a zone-mapped clustered store. Not safe for concurrent use.
type Map struct {
	zones     []*zone
	partition int // target records per partition (P)
	count     int
	meter     *rum.Meter
}

// New creates an empty map with partitions of P records (default 128).
// A nil meter gets a private one.
func New(p int, meter *rum.Meter) *Map {
	if p < 2 {
		p = 128
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Map{partition: p, meter: meter}
}

// Name identifies the map and its partition size.
func (m *Map) Name() string { return fmt.Sprintf("zonemap(P=%d)", m.partition) }

// Len returns the number of records.
func (m *Map) Len() int { return m.count }

// Meter returns the RUM accounting.
func (m *Map) Meter() *rum.Meter { return m.meter }

// Size reports records as base bytes and the zone summaries as auxiliary
// bytes — the near-zero index footprint that defines sparse indexes.
func (m *Map) Size() rum.SizeInfo {
	return rum.SizeInfo{
		BaseBytes: uint64(m.count) * core.RecordSize,
		AuxBytes:  uint64(len(m.zones)) * zoneMetaSize,
	}
}

// scanMeta charges the linear pass over every zone summary — the O(N/P/B)
// term every operation pays.
func (m *Map) scanMeta() {
	m.meter.CountRead(rum.Aux, len(m.zones)*zoneMetaSize)
}

// zoneFor returns the index of the zone whose range covers k, or the zone k
// should extend, or -1 when the map is empty. Charges the metadata scan.
func (m *Map) zoneFor(k core.Key) int {
	m.scanMeta()
	if len(m.zones) == 0 {
		return -1
	}
	// Zones are disjoint and sorted by min; pick the last zone with min <= k.
	i := sort.Search(len(m.zones), func(i int) bool { return m.zones[i].min > k }) - 1
	if i < 0 {
		return 0 // k precedes every zone: extend the first
	}
	return i
}

// scanZone charges reading a whole partition and returns the position of k
// in it, or -1.
func (m *Map) scanZone(z *zone, k core.Key) int {
	m.meter.CountRead(rum.Base, len(z.recs)*core.RecordSize)
	for i, r := range z.recs {
		if r.Key == k {
			return i
		}
	}
	return -1
}

// Get scans the summaries, then the single qualifying partition.
func (m *Map) Get(k core.Key) (core.Value, bool) {
	i := m.zoneFor(k)
	if i < 0 {
		return 0, false
	}
	z := m.zones[i]
	if k < z.min || k > z.max {
		return 0, false // pruned by the summary: no partition read at all
	}
	if j := m.scanZone(z, k); j >= 0 {
		return z.recs[j].Value, true
	}
	return 0, false
}

// Insert appends the record to its covering partition, splitting the
// partition when it exceeds 2P records.
func (m *Map) Insert(k core.Key, v core.Value) error {
	i := m.zoneFor(k)
	if i < 0 {
		z := &zone{min: k, max: k, recs: make([]core.Record, 0, m.partition)}
		z.recs = append(z.recs, core.Record{Key: k, Value: v})
		m.zones = append(m.zones, z)
		m.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
		m.meter.CountWrite(rum.Aux, rum.LineCost(zoneMetaSize))
		m.count++
		return nil
	}
	z := m.zones[i]
	if k >= z.min && k <= z.max {
		if m.scanZone(z, k) >= 0 {
			return core.ErrKeyExists
		}
	}
	z.recs = append(z.recs, core.Record{Key: k, Value: v})
	metaDirty := false
	if k < z.min {
		z.min = k
		metaDirty = true
	}
	if k > z.max {
		z.max = k
		metaDirty = true
	}
	m.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	if metaDirty {
		m.meter.CountWrite(rum.Aux, rum.LineCost(zoneMetaSize))
	}
	m.count++
	if len(z.recs) > 2*m.partition {
		m.splitZone(i)
	}
	return nil
}

// splitZone sorts an oversized partition and divides it into two disjoint
// halves, charging the rewrite.
func (m *Map) splitZone(i int) {
	z := m.zones[i]
	sort.Slice(z.recs, func(a, b int) bool { return z.recs[a].Key < z.recs[b].Key })
	mid := len(z.recs) / 2
	rightRecs := make([]core.Record, len(z.recs)-mid, m.partition*2)
	copy(rightRecs, z.recs[mid:])
	right := &zone{min: rightRecs[0].Key, max: z.max, recs: rightRecs}
	z.max = z.recs[mid-1].Key
	z.recs = z.recs[:mid]
	m.zones = append(m.zones, nil)
	copy(m.zones[i+2:], m.zones[i+1:])
	m.zones[i+1] = right
	m.meter.CountWrite(rum.Base, (len(z.recs)+len(right.recs))*core.RecordSize)
	m.meter.CountWrite(rum.Aux, 2*zoneMetaSize)
}

// Update overwrites the record in its partition.
func (m *Map) Update(k core.Key, v core.Value) bool {
	i := m.zoneFor(k)
	if i < 0 {
		return false
	}
	z := m.zones[i]
	if k < z.min || k > z.max {
		return false
	}
	j := m.scanZone(z, k)
	if j < 0 {
		return false
	}
	z.recs[j].Value = v
	m.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete removes the record, filling the hole with the partition's last
// record. Zone bounds are left conservative (never re-tightened), which
// keeps them correct.
func (m *Map) Delete(k core.Key) bool {
	i := m.zoneFor(k)
	if i < 0 {
		return false
	}
	z := m.zones[i]
	if k < z.min || k > z.max {
		return false
	}
	j := m.scanZone(z, k)
	if j < 0 {
		return false
	}
	last := len(z.recs) - 1
	z.recs[j] = z.recs[last]
	z.recs = z.recs[:last]
	m.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	m.count--
	return true
}

// RangeScan scans the summaries, prunes non-qualifying partitions, and
// emits qualifying partitions in ascending key order (each partition is
// sorted in memory before emission).
func (m *Map) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	m.scanMeta()
	emitted := 0
	for _, z := range m.zones {
		if z.max < lo || z.min > hi {
			continue
		}
		m.meter.CountRead(rum.Base, len(z.recs)*core.RecordSize)
		tmp := make([]core.Record, 0, len(z.recs))
		for _, r := range z.recs {
			if r.Key >= lo && r.Key <= hi {
				tmp = append(tmp, r)
			}
		}
		sort.Slice(tmp, func(a, b int) bool { return tmp[a].Key < tmp[b].Key })
		for _, r := range tmp {
			emitted++
			if !emit(r.Key, r.Value) {
				return emitted
			}
		}
	}
	return emitted
}

// BulkLoad replaces the contents with the key-sorted recs, packing
// partitions of exactly P records.
func (m *Map) BulkLoad(recs []core.Record) error {
	m.zones = nil
	m.count = len(recs)
	for start := 0; start < len(recs); start += m.partition {
		end := start + m.partition
		if end > len(recs) {
			end = len(recs)
		}
		part := make([]core.Record, end-start, m.partition)
		copy(part, recs[start:end])
		z := &zone{min: part[0].Key, max: part[len(part)-1].Key, recs: part}
		m.zones = append(m.zones, z)
	}
	m.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	m.meter.CountWrite(rum.Aux, len(m.zones)*zoneMetaSize)
	return nil
}
