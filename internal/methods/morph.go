package methods

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/workload"
)

// Flavor is one physical shape a morphing engine can take: New builds it,
// Config is what the analytic model prices it as.
type Flavor struct {
	Name   string
	New    func(meter *rum.Meter) core.AccessMethod
	Config model.Config
}

const (
	// morphWindow is the fingerprint window, in operations, the engine decides
	// on: long enough that a mix fraction is resolved to about two points and
	// the count-min frequencies behind the hot share to two operations
	// (ε = 1/256 of the window), short enough that a shifted workload is acted
	// on within a few hundred operations of the shift.
	morphWindow = 512
	// morphHysteresis is the share of the incumbent's model cost a challenger
	// must save before the engine migrates. A migration reads one shape and
	// writes the other whole, and a window's fingerprint is an estimate of
	// traffic the model prices only to within its calibration error: a saving
	// inside that noise would have the engine flap between shapes.
	morphHysteresis = 0.15
)

// Morphing is the Section-5 "morphing access method": a store that changes
// its physical structure online as the observed workload shifts, migrating
// its records between flavors. It observes its traffic through the advisor's
// own fingerprinter (obs.WorkloadRecorder) and reconsiders its shape whenever
// a window completes, pricing its flavors as obs.Advise prices the catalog —
// same traffic reading, same model, same cost. All incarnations share one
// meter, so the migration cost (a full read of the old shape and a full write
// of the new) is part of the measured RUM position. Not safe for concurrent
// use.
type Morphing struct {
	flavors    []Flavor
	substrate  model.Params
	cur        core.AccessMethod
	curIdx     int
	meter      *rum.Meter
	rec        *obs.WorkloadRecorder
	decided    uint64 // the newest fingerprint window already acted on
	migrations int
}

// NewMorphing creates a morphing store starting as flavors[start], its
// flavors priced on substrate. The flavor list must be non-empty.
func NewMorphing(flavors []Flavor, start int, substrate model.Params) (*Morphing, error) {
	if len(flavors) == 0 {
		return nil, fmt.Errorf("methods: morphing needs at least one flavor")
	}
	if start < 0 || start >= len(flavors) {
		return nil, fmt.Errorf("methods: start flavor %d out of range", start)
	}
	meter := &rum.Meter{}
	return &Morphing{
		flavors:   flavors,
		substrate: substrate,
		cur:       flavors[start].New(meter),
		curIdx:    start,
		meter:     meter,
		rec:       obs.NewWorkloadRecorder(morphWindow, 1),
	}, nil
}

// Name reports the engine and its current shape.
func (m *Morphing) Name() string { return fmt.Sprintf("morphing[%s]", m.flavors[m.curIdx].Name) }

// CurrentFlavor returns the name of the active shape.
func (m *Morphing) CurrentFlavor() string { return m.flavors[m.curIdx].Name }

// Migrations returns how many times the engine has changed shape.
func (m *Morphing) Migrations() int { return m.migrations }

// Meter returns the engine-lifetime RUM accounting (shared across shapes).
func (m *Morphing) Meter() *rum.Meter { return m.meter }

// Size delegates to the current shape.
func (m *Morphing) Size() rum.SizeInfo { return m.cur.Size() }

// Len delegates to the current shape.
func (m *Morphing) Len() int { return m.cur.Len() }

// Flush delegates to the current shape.
func (m *Morphing) Flush() { core.Flush(m.cur) }

// recordOp records a delegated point operation.
func (m *Morphing) recordOp(kind workload.OpKind, k core.Key) {
	m.rec.RecordOp(kind, k)
	m.recorded()
}

// recorded follows every recorded operation: when it completed a fingerprint
// window, the engine reconsiders its shape for the traffic that window saw, on
// the substrate holding the records it has now.
func (m *Morphing) recorded() {
	last := m.rec.Last()
	if last.Window == m.decided {
		return
	}
	m.decided = last.Window
	on := m.substrate
	on.N = float64(m.cur.Len())
	t, on := last.Priced(on)
	cost := func(i int) float64 { return m.flavors[i].Config.Price(t, on).Cost(t) }
	best, incumbent := m.curIdx, cost(m.curIdx)
	bestCost := incumbent
	for i := range m.flavors {
		if c := cost(i); c < bestCost {
			best, bestCost = i, c
		}
	}
	if bestCost < incumbent*(1-morphHysteresis) {
		m.migrate(best)
	}
}

// migrate drains the current shape into a fresh instance of flavor idx. The
// drain and refill are charged on the shared meter — morphing is not free,
// which is why the hysteresis exists.
func (m *Morphing) migrate(idx int) {
	recs := make([]core.Record, 0, m.cur.Len())
	m.cur.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		recs = append(recs, core.Record{Key: k, Value: v})
		return true
	})
	core.SortRecords(recs)
	next := m.flavors[idx].New(m.meter)
	if load(next, recs) != nil {
		return // keep the current shape on failure
	}
	core.Flush(next)
	m.cur = next
	m.curIdx = idx
	m.migrations++
}

// Get delegates and records.
func (m *Morphing) Get(k core.Key) (core.Value, bool) {
	v, ok := m.cur.Get(k)
	m.recordOp(workload.OpGet, k)
	return v, ok
}

// Insert delegates and records.
func (m *Morphing) Insert(k core.Key, v core.Value) error {
	err := m.cur.Insert(k, v)
	m.recordOp(workload.OpInsert, k)
	return err
}

// Update delegates and records.
func (m *Morphing) Update(k core.Key, v core.Value) bool {
	ok := m.cur.Update(k, v)
	m.recordOp(workload.OpUpdate, k)
	return ok
}

// Delete delegates and records.
func (m *Morphing) Delete(k core.Key) bool {
	ok := m.cur.Delete(k)
	m.recordOp(workload.OpDelete, k)
	return ok
}

// RangeScan delegates and records the rows the scan returned.
func (m *Morphing) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	rows := m.cur.RangeScan(lo, hi, emit)
	m.rec.RecordScan(rows)
	m.recorded()
	return rows
}

// BulkLoad loads into the current shape.
func (m *Morphing) BulkLoad(recs []core.Record) error { return load(m.cur, recs) }

// load bulk-loads the key-ordered recs into am when it can, and inserts them
// one by one when it cannot.
func load(am core.AccessMethod, recs []core.Record) error {
	if bl, ok := am.(core.BulkLoader); ok {
		return bl.BulkLoad(recs)
	}
	for _, r := range recs {
		if err := am.Insert(r.Key, r.Value); err != nil && err != core.ErrKeyExists {
			return err
		}
	}
	return nil
}
