// Package approx implements an approximate tree index in the spirit of the
// BF-tree (Athanassoulis & Ailamaki, PVLDB 2014) — the Section-5 roadmap
// item "approximate (tree) indexing that supports updates with low read
// performance overhead, by absorbing them in updatable probabilistic data
// structures (like quotient filters)".
//
// The base data is range-partitioned into zones, like a sparse index, but
// each zone additionally carries a *quotient filter* over its keys. Point
// queries consult the zone's filter before scanning: a negative answer
// skips the zone entirely, so misses (and membership checks) cost a filter
// probe instead of a partition scan — most of a dense index's read benefit
// at a fraction of its space. Because the filter is a quotient filter, it
// absorbs inserts and deletes in place, which a static Bloom filter cannot.
//
// RUM position: MO slightly above a plain zone map (the filters), RO far
// below it for point queries, UO slightly above it (filter maintenance) —
// a deliberate interior point of the triangle.
package approx

import (
	"fmt"
	"sort"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/rum"
)

const zoneMetaSize = 24 // min (8) + max (8) + count (4) + pointer (4)

type zone struct {
	min, max core.Key
	recs     []core.Record
	filter   *bloom.Quotient
}

// Config tunes the index.
type Config struct {
	// Partition is the target records per zone (default 256).
	Partition int
	// FingerprintBits is the quotient-filter fingerprint width (default 16:
	// ~2^-8 false-positive rate per zone at half load).
	FingerprintBits uint
}

// Tree is the approximate index. Not safe for concurrent use.
type Tree struct {
	zones       []*zone
	cfg         Config
	count       int
	meter       *rum.Meter
	filterSkips uint64
}

// New creates an empty tree. A nil meter gets a private one.
func New(cfg Config, meter *rum.Meter) *Tree {
	if cfg.Partition < 8 {
		cfg.Partition = 256
	}
	if cfg.FingerprintBits == 0 {
		cfg.FingerprintBits = 16
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Tree{cfg: cfg, meter: meter}
}

// Name identifies the tree and its shape.
func (t *Tree) Name() string {
	return fmt.Sprintf("approx(P=%d,fp=%d)", t.cfg.Partition, t.cfg.FingerprintBits)
}

// Len returns the number of records.
func (t *Tree) Len() int { return t.count }

// FilterSkips returns how many zone scans the filters avoided.
func (t *Tree) FilterSkips() uint64 { return t.filterSkips }

// Meter returns the RUM accounting.
func (t *Tree) Meter() *rum.Meter { return t.meter }

// Size reports records as base bytes; zone summaries and filters as
// auxiliary bytes.
func (t *Tree) Size() rum.SizeInfo {
	aux := uint64(len(t.zones)) * zoneMetaSize
	for _, z := range t.zones {
		aux += z.filter.SizeBytes()
	}
	return rum.SizeInfo{BaseBytes: uint64(t.count) * core.RecordSize, AuxBytes: aux}
}

// newFilter sizes a quotient filter for the configured partition.
func (t *Tree) newFilter() *bloom.Quotient {
	q := uint(3)
	for 1<<q < 2*t.cfg.Partition {
		q++
	}
	p := q + 8
	if t.cfg.FingerprintBits > q {
		p = t.cfg.FingerprintBits
	}
	f, err := bloom.NewQuotient(q, p, t.meter)
	if err != nil {
		panic(fmt.Sprintf("approx: %v", err))
	}
	return f
}

// zoneFor returns the index of the zone covering (or nearest below) k,
// charging binary probes over the summaries.
func (t *Tree) zoneFor(k core.Key) int {
	probes := 0
	i := sort.Search(len(t.zones), func(i int) bool {
		probes++
		return t.zones[i].min > k
	}) - 1
	t.meter.CountRead(rum.Aux, probes*rum.LineSize)
	if i < 0 && len(t.zones) > 0 {
		return 0
	}
	return i
}

// scanZone charges a partition scan and returns k's position, or -1.
func (t *Tree) scanZone(z *zone, k core.Key) int {
	t.meter.CountRead(rum.Base, len(z.recs)*core.RecordSize)
	for i, r := range z.recs {
		if r.Key == k {
			return i
		}
	}
	return -1
}

// mayContain asks the zone's filter, counting the scans it skips.
func (t *Tree) mayContain(z *zone, k core.Key) bool {
	if z.filter.MayContain(k) {
		return true
	}
	t.filterSkips++
	return false
}

// Get locates the candidate zone, asks its filter, and scans only on a
// maybe.
func (t *Tree) Get(k core.Key) (core.Value, bool) {
	i := t.zoneFor(k)
	if i < 0 {
		return 0, false
	}
	z := t.zones[i]
	if k < z.min || k > z.max {
		return 0, false
	}
	if !t.mayContain(z, k) {
		return 0, false
	}
	j := t.scanZone(z, k)
	if j < 0 {
		return 0, false
	}
	return z.recs[j].Value, true
}

// Insert adds the record to its covering zone and the zone's filter,
// splitting oversized zones.
func (t *Tree) Insert(k core.Key, v core.Value) error {
	i := t.zoneFor(k)
	if i < 0 {
		z := &zone{min: k, max: k, filter: t.newFilter()}
		z.recs = append(z.recs, core.Record{Key: k, Value: v})
		z.filter.Add(k)
		t.zones = append(t.zones, z)
		t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
		t.meter.CountWrite(rum.Aux, rum.LineCost(zoneMetaSize))
		t.count++
		return nil
	}
	z := t.zones[i]
	if k >= z.min && k <= z.max && t.mayContain(z, k) {
		if t.scanZone(z, k) >= 0 {
			return core.ErrKeyExists
		}
	}
	z.recs = append(z.recs, core.Record{Key: k, Value: v})
	z.filter.Add(k)
	if k < z.min {
		z.min = k
	}
	if k > z.max {
		z.max = k
	}
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	t.count++
	if len(z.recs) > 2*t.cfg.Partition {
		t.splitZone(i)
	}
	return nil
}

// splitZone divides an oversized zone into two, rebuilding both filters.
func (t *Tree) splitZone(i int) {
	z := t.zones[i]
	sort.Slice(z.recs, func(a, b int) bool { return z.recs[a].Key < z.recs[b].Key })
	mid := len(z.recs) / 2
	rightRecs := make([]core.Record, len(z.recs)-mid)
	copy(rightRecs, z.recs[mid:])
	right := &zone{min: rightRecs[0].Key, max: z.max, recs: rightRecs, filter: t.newFilter()}
	z.max = z.recs[mid-1].Key
	z.recs = z.recs[:mid]
	z.filter = t.newFilter()
	for _, r := range z.recs {
		z.filter.Add(r.Key)
	}
	for _, r := range right.recs {
		right.filter.Add(r.Key)
	}
	t.zones = append(t.zones, nil)
	copy(t.zones[i+2:], t.zones[i+1:])
	t.zones[i+1] = right
	t.meter.CountWrite(rum.Base, (len(z.recs)+len(right.recs))*core.RecordSize)
	t.meter.CountWrite(rum.Aux, 2*zoneMetaSize)
}

// Update overwrites the record in its zone.
func (t *Tree) Update(k core.Key, v core.Value) bool {
	i := t.zoneFor(k)
	if i < 0 {
		return false
	}
	z := t.zones[i]
	if k < z.min || k > z.max || !t.mayContain(z, k) {
		return false
	}
	j := t.scanZone(z, k)
	if j < 0 {
		return false
	}
	z.recs[j].Value = v
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	return true
}

// Delete removes the record from its zone and the zone's filter — the
// quotient filter's updatability at work.
func (t *Tree) Delete(k core.Key) bool {
	i := t.zoneFor(k)
	if i < 0 {
		return false
	}
	z := t.zones[i]
	if k < z.min || k > z.max || !t.mayContain(z, k) {
		return false
	}
	j := t.scanZone(z, k)
	if j < 0 {
		return false
	}
	last := len(z.recs) - 1
	z.recs[j] = z.recs[last]
	z.recs = z.recs[:last]
	z.filter.Remove(k)
	t.meter.CountWrite(rum.Base, rum.LineCost(core.RecordSize))
	t.count--
	return true
}

// RangeScan prunes zones by their summaries (filters cannot help with
// ranges) and emits qualifying partitions in ascending key order.
func (t *Tree) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	t.meter.CountRead(rum.Aux, len(t.zones)*zoneMetaSize)
	emitted := 0
	for _, z := range t.zones {
		if z.max < lo || z.min > hi {
			continue
		}
		t.meter.CountRead(rum.Base, len(z.recs)*core.RecordSize)
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

// BulkLoad replaces the contents with the key-sorted recs, packing zones of
// exactly the configured partition size and building their filters.
func (t *Tree) BulkLoad(recs []core.Record) error {
	t.zones = nil
	t.count = len(recs)
	for start := 0; start < len(recs); start += t.cfg.Partition {
		end := start + t.cfg.Partition
		if end > len(recs) {
			end = len(recs)
		}
		part := make([]core.Record, end-start)
		copy(part, recs[start:end])
		z := &zone{min: part[0].Key, max: part[len(part)-1].Key, recs: part, filter: t.newFilter()}
		for _, r := range part {
			z.filter.Add(r.Key)
		}
		t.zones = append(t.zones, z)
	}
	t.meter.CountWrite(rum.Base, len(recs)*core.RecordSize)
	t.meter.CountWrite(rum.Aux, len(t.zones)*zoneMetaSize)
	return nil
}
