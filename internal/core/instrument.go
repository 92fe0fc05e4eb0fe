package core

import "repro/internal/rum"

// Op names used when reporting operation spans to an OpObserver. They are
// untyped string constants so observer implementations can use them as map
// keys and export labels without conversion.
const (
	OpNameGet      = "get"
	OpNameRange    = "range"
	OpNameInsert   = "insert"
	OpNameUpdate   = "update"
	OpNameDelete   = "delete"
	OpNameFlush    = "flush"
	OpNameBulkLoad = "bulkload"
)

// OpObserver observes the boundaries of every logical operation executed
// through an Instrumented wrapper, so physical traffic (metered bytes,
// storage events) occurring between BeginOp and EndOp can be attributed to
// the operation that caused it. Calls may nest (a BulkLoad that falls back
// to Inserts); observers are expected to attribute nested work to the
// outermost span. A nil observer is the default; the hooks then cost one
// pointer comparison per operation and allocate nothing.
type OpObserver interface {
	BeginOp(op string)
	EndOp(op string)
}

// Instrumented wraps an AccessMethod and performs the *logical* side of the
// paper's overhead accounting centrally: every operation records the payload
// the caller asked to read or write, while the wrapped structure records the
// physical bytes it touched. Keeping logical accounting out of the
// structures means nested composites (an LSM whose memtable is a skiplist, a
// zone map over a column) never double-count.
//
// The conventions, applied uniformly:
//
//   - a point query accounts one record of logical read, hit or miss (the
//     paper's "data intended to be read");
//   - a range query accounts one record per emitted result;
//   - an insert, update, or delete accounts one record of logical write,
//     whether or not the key existed.
type Instrumented struct {
	inner AccessMethod
	obs   OpObserver
}

// Instrument wraps am. The returned value shares am's meter.
func Instrument(am AccessMethod) *Instrumented {
	if w, ok := am.(*Instrumented); ok {
		return w
	}
	return &Instrumented{inner: am}
}

// SetObserver attaches (or, with nil, detaches) a per-operation observer.
func (w *Instrumented) SetObserver(o OpObserver) { w.obs = o }

// Unwrap returns the wrapped access method.
func (w *Instrumented) Unwrap() AccessMethod { return w.inner }

// Name delegates to the wrapped structure.
func (w *Instrumented) Name() string { return w.inner.Name() }

// Get performs a point query, accounting one logical record read.
func (w *Instrumented) Get(k Key) (Value, bool) {
	if w.obs != nil {
		w.obs.BeginOp(OpNameGet)
		defer w.obs.EndOp(OpNameGet)
	}
	w.inner.Meter().CountLogicalRead(RecordSize)
	return w.inner.Get(k)
}

// GetBatch is len(keys) Gets, logical meter included. A BatchGetter gets the
// keys in one call, unless an observer is attached: that wants one span per
// read.
func (w *Instrumented) GetBatch(keys []Key, vals []Value, oks []bool) {
	bg, ok := w.inner.(BatchGetter)
	if !ok || w.obs != nil {
		for i, k := range keys {
			vals[i], oks[i] = w.Get(k)
		}
		return
	}
	w.inner.Meter().CountLogicalReads(len(keys), RecordSize)
	bg.GetBatch(keys, vals, oks)
}

// Prefetch forwards the hint to a Prefetcher, unless an observer is attached:
// that wants each read inside its operation's span. It accounts nothing: the
// operations that follow account themselves.
func (w *Instrumented) Prefetch(keys []Key) {
	if pf, ok := w.inner.(Prefetcher); ok && w.obs == nil {
		pf.Prefetch(keys)
	}
}

// Insert accounts one logical record write.
func (w *Instrumented) Insert(k Key, v Value) error {
	if w.obs != nil {
		w.obs.BeginOp(OpNameInsert)
		defer w.obs.EndOp(OpNameInsert)
	}
	w.inner.Meter().CountLogicalWrite(RecordSize)
	return w.inner.Insert(k, v)
}

// Update accounts one logical record write.
func (w *Instrumented) Update(k Key, v Value) bool {
	if w.obs != nil {
		w.obs.BeginOp(OpNameUpdate)
		defer w.obs.EndOp(OpNameUpdate)
	}
	w.inner.Meter().CountLogicalWrite(RecordSize)
	return w.inner.Update(k, v)
}

// Delete accounts one logical record write.
func (w *Instrumented) Delete(k Key) bool {
	if w.obs != nil {
		w.obs.BeginOp(OpNameDelete)
		defer w.obs.EndOp(OpNameDelete)
	}
	w.inner.Meter().CountLogicalWrite(RecordSize)
	return w.inner.Delete(k)
}

// RangeScan accounts one logical record read per emitted result (and one
// read operation).
func (w *Instrumented) RangeScan(lo, hi Key, emit func(Key, Value) bool) int {
	if w.obs != nil {
		w.obs.BeginOp(OpNameRange)
		defer w.obs.EndOp(OpNameRange)
	}
	n := w.inner.RangeScan(lo, hi, emit)
	w.inner.Meter().CountLogicalRead(n * RecordSize)
	return n
}

// Len delegates to the wrapped structure.
func (w *Instrumented) Len() int { return w.inner.Len() }

// Meter delegates to the wrapped structure.
func (w *Instrumented) Meter() *rum.Meter { return w.inner.Meter() }

// Size delegates to the wrapped structure.
func (w *Instrumented) Size() rum.SizeInfo { return w.inner.Size() }

// Flush forwards to the wrapped structure if it buffers writes.
func (w *Instrumented) Flush() {
	if w.obs != nil {
		w.obs.BeginOp(OpNameFlush)
		defer w.obs.EndOp(OpNameFlush)
	}
	Flush(w.inner)
}

// BulkLoad forwards when supported; the load is accounted as logical writes
// for every record.
func (w *Instrumented) BulkLoad(recs []Record) error {
	if w.obs != nil {
		w.obs.BeginOp(OpNameBulkLoad)
		defer w.obs.EndOp(OpNameBulkLoad)
	}
	bl, ok := w.inner.(BulkLoader)
	if !ok {
		for _, r := range recs {
			if err := w.Insert(r.Key, r.Value); err != nil {
				return err
			}
		}
		return nil
	}
	w.inner.Meter().CountLogicalWrite(len(recs) * RecordSize)
	return bl.BulkLoad(recs)
}

// Publish forwards to the wrapped structure when it is a SnapshotReader.
// Writer-side call, like every mutating call through the wrapper.
func (w *Instrumented) Publish() error {
	sr, ok := w.inner.(SnapshotReader)
	if !ok {
		return ErrNoSnapshots
	}
	return sr.Publish()
}

// Acquire returns the newest published snapshot wrapped for logical
// accounting, or nil if the inner structure does not support snapshots or
// has not published yet. The wrapper applies the same conventions as the
// writer-side operations — one logical record per point read, one per
// emitted range result — but charges them to the reader's private meter, so
// per-reader totals merge exactly into the shard ledger. Writer-side call.
func (w *Instrumented) Acquire() Snapshot {
	sr, ok := w.inner.(SnapshotReader)
	if !ok {
		return nil
	}
	s := sr.Acquire()
	if s == nil {
		return nil
	}
	return instrumentedSnapshot{s}
}

// SnapshotStats forwards to the wrapped structure; the zero value is
// returned when snapshots are unsupported. Writer-side call.
func (w *Instrumented) SnapshotStats() SnapshotStats {
	if sr, ok := w.inner.(SnapshotReader); ok {
		return sr.SnapshotStats()
	}
	return SnapshotStats{}
}

// instrumentedSnapshot layers the logical half of the accounting over an
// inner snapshot, mirroring what Instrumented does for the live structure:
// the inner snapshot charges physical bytes to the reader's meter, this
// wrapper charges the logical payload.
type instrumentedSnapshot struct{ inner Snapshot }

func (s instrumentedSnapshot) Epoch() uint64 { return s.inner.Epoch() }
func (s instrumentedSnapshot) Len() int      { return s.inner.Len() }
func (s instrumentedSnapshot) Retain() bool  { return s.inner.Retain() }
func (s instrumentedSnapshot) Release()      { s.inner.Release() }

func (s instrumentedSnapshot) Get(k Key, m *rum.Meter) (Value, bool) {
	m.CountLogicalRead(RecordSize)
	return s.inner.Get(k, m)
}

// GetBatch charges what len(keys) Gets charge — a record's bytes and one read
// operation each — once.
func (s instrumentedSnapshot) GetBatch(keys []Key, vals []Value, oks []bool, m *rum.Meter) {
	m.CountLogicalReads(len(keys), RecordSize)
	s.inner.GetBatch(keys, vals, oks, m)
}

func (s instrumentedSnapshot) RangeScan(lo, hi Key, m *rum.Meter, emit func(Key, Value) bool) int {
	n := s.inner.RangeScan(lo, hi, m, emit)
	m.CountLogicalRead(n * RecordSize)
	return n
}
