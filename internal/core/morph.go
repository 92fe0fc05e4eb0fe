package core

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/rum"
	"repro/internal/workload"
)

// MixWindow observes the recent operation mix — the signal the paper's
// envisioned "morphing access methods" and "dynamic RUM balance" adapt to.
type MixWindow struct {
	kinds []workload.OpKind
	next  int
	full  bool
	count [5]int
}

// NewMixWindow creates a sliding window over the last n operations.
func NewMixWindow(n int) *MixWindow {
	if n < 1 {
		n = 1
	}
	return &MixWindow{kinds: make([]workload.OpKind, n)}
}

// Observe records one operation.
func (w *MixWindow) Observe(k workload.OpKind) {
	if w.full {
		w.count[w.kinds[w.next]]--
	}
	w.kinds[w.next] = k
	w.count[k]++
	w.next++
	if w.next == len(w.kinds) {
		w.next = 0
		w.full = true
	}
}

// Total returns the number of observed operations in the window.
func (w *MixWindow) Total() int {
	if w.full {
		return len(w.kinds)
	}
	return w.next
}

// Mix returns the observed operation fractions.
func (w *MixWindow) Mix() workload.Mix {
	n := w.Total()
	if n == 0 {
		return workload.Mix{}
	}
	f := func(k workload.OpKind) float64 { return float64(w.count[k]) / float64(n) }
	return workload.Mix{
		Get:    f(workload.OpGet),
		Range:  f(workload.OpRange),
		Insert: f(workload.OpInsert),
		Update: f(workload.OpUpdate),
		Delete: f(workload.OpDelete),
	}
}

// Flavor is one physical shape a morphing engine can take: New builds it,
// Config is what the analytic model prices it as.
type Flavor struct {
	Name   string
	New    func(meter *rum.Meter) AccessMethod
	Config model.Config
}

// MorphPolicy controls when the engine reconsiders its shape.
type MorphPolicy struct {
	// Window is the op-mix observation window (default 512).
	Window int
	// Interval is how many operations pass between shape decisions
	// (default 256).
	Interval int
	// Hysteresis is the share of the incumbent's model cost a challenger
	// must save before a migration is worth its cost (default 0.15).
	Hysteresis float64
}

func (p *MorphPolicy) defaults() {
	p.Window = cmp.Or(max(p.Window, 0), 512)
	p.Interval = cmp.Or(max(p.Interval, 0), 256)
	p.Hysteresis = cmp.Or(max(p.Hysteresis, 0), 0.15)
}

// Morphing is the Section-5 "morphing access method": a store that changes
// its physical structure online as the observed workload shifts, migrating
// its records between flavors. All incarnations share one meter, so the
// migration cost (a full read of the old shape and a full write of the new)
// is part of the measured RUM position. Not safe for concurrent use.
type Morphing struct {
	flavors    []Flavor
	substrate  model.Params
	cur        AccessMethod
	curIdx     int
	meter      *rum.Meter
	window     *MixWindow
	policy     MorphPolicy
	sinceCheck int
	migrations int
	// scans and scanned count the range scans since the last shape decision
	// and the rows they returned.
	scans, scanned int
}

// NewMorphing creates a morphing store starting as flavors[start], its
// flavors priced on substrate. The flavor list must be non-empty.
func NewMorphing(flavors []Flavor, start int, substrate model.Params, policy MorphPolicy) (*Morphing, error) {
	if len(flavors) == 0 {
		return nil, fmt.Errorf("core: morphing needs at least one flavor")
	}
	if start < 0 || start >= len(flavors) {
		return nil, fmt.Errorf("core: start flavor %d out of range", start)
	}
	policy.defaults()
	meter := &rum.Meter{}
	return &Morphing{
		flavors:   flavors,
		substrate: substrate,
		cur:       flavors[start].New(meter),
		curIdx:    start,
		meter:     meter,
		window:    NewMixWindow(policy.Window),
		policy:    policy,
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
func (m *Morphing) Flush() { Flush(m.cur) }

// observe records the op kind and periodically reconsiders the shape.
func (m *Morphing) observe(k workload.OpKind) {
	m.window.Observe(k)
	m.sinceCheck++
	if m.sinceCheck < m.policy.Interval {
		return
	}
	m.sinceCheck = 0
	m.maybeMorph()
}

func (m *Morphing) maybeMorph() {
	rows := float64(m.scanned) / math.Max(1, float64(m.scans))
	m.scans, m.scanned = 0, 0
	if m.window.Total() < m.policy.Window/2 {
		return // not enough signal yet
	}
	on := m.substrate
	on.N = float64(m.cur.Len())
	t := traffic(m.window.Mix(), on.N)
	if rows > 0 {
		t.ScanRows = rows // what its scans return, not the wizard's convention
	}
	cost := func(i int) float64 { return m.flavors[i].Config.Price(t, on).Cost(t) }
	best, incumbent := m.curIdx, cost(m.curIdx)
	bestCost := incumbent
	for i := range m.flavors {
		if c := cost(i); c < bestCost {
			best, bestCost = i, c
		}
	}
	if bestCost < incumbent*(1-m.policy.Hysteresis) {
		m.migrate(best)
	}
}

// migrate drains the current shape into a fresh instance of flavor idx. The
// drain and refill are charged on the shared meter — morphing is not free,
// which is why the hysteresis exists.
func (m *Morphing) migrate(idx int) {
	recs := make([]Record, 0, m.cur.Len())
	m.cur.RangeScan(0, ^Key(0), func(k Key, v Value) bool {
		recs = append(recs, Record{Key: k, Value: v})
		return true
	})
	SortRecords(recs)
	next := m.flavors[idx].New(m.meter)
	if load(next, recs) != nil {
		return // keep the current shape on failure
	}
	Flush(next)
	m.cur = next
	m.curIdx = idx
	m.migrations++
}

// Get delegates and observes.
func (m *Morphing) Get(k Key) (Value, bool) {
	m.observe(workload.OpGet)
	return m.cur.Get(k)
}

// Insert delegates and observes.
func (m *Morphing) Insert(k Key, v Value) error {
	m.observe(workload.OpInsert)
	return m.cur.Insert(k, v)
}

// Update delegates and observes.
func (m *Morphing) Update(k Key, v Value) bool {
	m.observe(workload.OpUpdate)
	return m.cur.Update(k, v)
}

// Delete delegates and observes.
func (m *Morphing) Delete(k Key) bool {
	m.observe(workload.OpDelete)
	return m.cur.Delete(k)
}

// RangeScan delegates and observes.
func (m *Morphing) RangeScan(lo, hi Key, emit func(Key, Value) bool) int {
	m.observe(workload.OpRange)
	rows := m.cur.RangeScan(lo, hi, emit)
	m.scans, m.scanned = m.scans+1, m.scanned+rows
	return rows
}

// BulkLoad loads into the current shape.
func (m *Morphing) BulkLoad(recs []Record) error { return load(m.cur, recs) }

// load bulk-loads the key-ordered recs into am when it can, and inserts them
// one by one when it cannot.
func load(am AccessMethod, recs []Record) error {
	if bl, ok := am.(BulkLoader); ok {
		return bl.BulkLoad(recs)
	}
	for _, r := range recs {
		if err := am.Insert(r.Key, r.Value); err != nil && err != ErrKeyExists {
			return err
		}
	}
	return nil
}
