package rum

import "sync/atomic"

// AtomicMeter is the goroutine-safe counterpart of Meter: every counter is
// an atomic, so concurrent goroutines may drain into one AtomicMeter without
// locks or data races.
//
// Counting itself stays on plain Meters — atomics cost a serialized RMW per
// count and defeat the compiler's ability to coalesce adjacent counter
// updates — so each goroutine counts into its own Meter and merges it here
// with Merge. The zero value is ready to use.
type AtomicMeter struct {
	baseRead       atomic.Uint64
	auxRead        atomic.Uint64
	baseWritten    atomic.Uint64
	auxWritten     atomic.Uint64
	logicalRead    atomic.Uint64
	logicalWritten atomic.Uint64
	readOps        atomic.Uint64
	writeOps       atomic.Uint64
}

// Merge accumulates a plain Meter's counts — the drain step of the
// per-goroutine sharding pattern.
func (m *AtomicMeter) Merge(o Meter) {
	m.baseRead.Add(o.BaseRead)
	m.auxRead.Add(o.AuxRead)
	m.baseWritten.Add(o.BaseWritten)
	m.auxWritten.Add(o.AuxWritten)
	m.logicalRead.Add(o.LogicalRead)
	m.logicalWritten.Add(o.LogicalWritten)
	m.readOps.Add(o.ReadOps)
	m.writeOps.Add(o.WriteOps)
}

// Snapshot returns the current counters as a plain Meter. Each counter is
// loaded atomically; the combination is not a single atomic cut, which is
// the usual (and here acceptable) monitoring tradeoff.
func (m *AtomicMeter) Snapshot() Meter {
	return Meter{
		BaseRead:       m.baseRead.Load(),
		AuxRead:        m.auxRead.Load(),
		BaseWritten:    m.baseWritten.Load(),
		AuxWritten:     m.auxWritten.Load(),
		LogicalRead:    m.logicalRead.Load(),
		LogicalWritten: m.logicalWritten.Load(),
		ReadOps:        m.readOps.Load(),
		WriteOps:       m.writeOps.Load(),
	}
}
