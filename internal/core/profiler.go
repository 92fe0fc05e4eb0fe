package core

import (
	"fmt"

	"repro/internal/rum"
	"repro/internal/workload"
)

// OpStats aggregates the outcome of a profiled workload run.
type OpStats struct {
	Gets, Hits     int
	Ranges         int
	RangeRows      int
	Inserts        int
	Updates        int
	UpdateHits     int
	Deletes        int
	DeleteHits     int
	InsertFailures int
}

// Profile is the measured RUM position of an access method under a
// workload: the paper's mapping of a structure to a point in RUM space.
type Profile struct {
	Name  string
	Point rum.Point
	Meter rum.Meter // counts accumulated during the profiled phase only
	Size  rum.SizeInfo
	Ops   OpStats
}

// String renders the profile compactly.
func (p Profile) String() string {
	return fmt.Sprintf("%-24s %s (%s)", p.Name, p.Point, p.Point.Classify())
}

// Preload feeds the generator's initial records into the structure via
// BulkLoad when supported (sorted first), or via individual inserts.
// Preloading happens before measurement, mirroring the paper's separation of
// bulk creation cost from steady-state overheads.
func Preload(am AccessMethod, gen *workload.Generator) error {
	ops := gen.InitialRecords()
	w := Instrument(am)
	if _, ok := w.Unwrap().(BulkLoader); ok {
		recs := make([]Record, len(ops))
		for i, op := range ops {
			recs[i] = Record{Key: op.Key, Value: op.Value}
		}
		SortRecords(recs)
		return w.BulkLoad(recs)
	}
	for _, op := range ops {
		if err := w.Insert(op.Key, op.Value); err != nil && err != ErrKeyExists {
			return err
		}
	}
	return nil
}

// seedLiveKeys caps SeedLive's sample: enough live keys that a phase's reads,
// updates and deletes spread over the store, without a scan of all of it.
const seedLiveKeys = 4096

// SeedLive registers the structure's first seedLiveKeys keys as the
// generator's live set — Preload's counterpart for a generator attached to a
// store that already holds data, so its reads, updates and deletes target
// records that exist.
func SeedLive(gen *workload.Generator, am AccessMethod) {
	count := 0
	am.RangeScan(0, ^Key(0), func(k Key, _ Value) bool {
		gen.RegisterLive(k)
		count++
		return count < seedLiveKeys
	})
}

// Apply executes one workload operation against the (instrumented) access
// method and records its outcome in st.
func Apply(w *Instrumented, op workload.Op, st *OpStats) {
	switch op.Kind {
	case workload.OpGet:
		st.Gets++
		if _, ok := w.Get(op.Key); ok {
			st.Hits++
		}
	case workload.OpScan:
		st.Ranges++
		st.RangeRows += w.RangeScan(op.Key, op.Hi, func(Key, Value) bool { return true })
	case workload.OpInsert:
		st.Inserts++
		if err := w.Insert(op.Key, op.Value); err != nil {
			st.InsertFailures++
		}
	case workload.OpUpdate:
		st.Updates++
		if w.Update(op.Key, op.Value) {
			st.UpdateHits++
		}
	case workload.OpDelete:
		st.Deletes++
		if w.Delete(op.Key) {
			st.DeleteHits++
		}
	}
}

// RunProfile preloads the structure, replays n operations from gen, flushes
// buffered writes, and returns the measured RUM point of the run (physical
// traffic during the measured phase only; space measured at the end).
func RunProfile(am AccessMethod, gen *workload.Generator, n int) (Profile, error) {
	w := Instrument(am)
	// Preload through the same wrapper so an attached OpObserver sees the
	// load as spans too (Preload's own Instrument call returns w unchanged).
	if err := Preload(w, gen); err != nil {
		return Profile{}, fmt.Errorf("preload %s: %w", am.Name(), err)
	}
	w.Flush()
	start := w.Meter().Snapshot()
	var st OpStats
	for i := 0; i < n; i++ {
		Apply(w, gen.Next(), &st)
	}
	w.Flush()
	m := w.Meter().Diff(start)
	size := w.Size()
	return Profile{
		Name:  am.Name(),
		Point: rum.PointOf(m, size),
		Meter: m,
		Size:  size,
		Ops:   st,
	}, nil
}
