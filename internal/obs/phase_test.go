package obs_test

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/storage"
)

func phaseTrace(op string, key uint64, q, s time.Duration, at time.Time) obs.SlowTrace {
	return obs.SlowTrace{At: at, Op: op, Key: key, Queue: q, Service: s, Total: q + s}
}

// observe drives one trace through the recorder the way a shard does: the
// integer gate first, the exemplar only on admission.
func observe(r *obs.PhaseRecorder, t obs.SlowTrace) {
	if b, ok := r.ObserveOp(t.Queue, t.Service, t.Total, t.At.UnixNano()); ok {
		r.SetExemplar(b, &t)
	}
}

// TestPhaseRecorderObserve checks that observations land in the queue and
// service histograms and that each service bucket retains its worst-total
// operation as the exemplar.
func TestPhaseRecorderObserve(t *testing.T) {
	r := obs.NewPhaseRecorder()
	base := time.Unix(100, 0)
	// Two ops in the same service bucket (~3µs): the one with the larger
	// total must own the exemplar.
	observe(r, phaseTrace("get", 1, 50*time.Microsecond, 3*time.Microsecond, base))
	observe(r, phaseTrace("get", 2, 1*time.Microsecond, 3*time.Microsecond, base))
	// One op in a different bucket.
	observe(r, phaseTrace("insert", 3, time.Microsecond, 80*time.Microsecond, base))

	s := r.Snapshot()
	if s.Queue.Count() != 3 || s.Service.Count() != 3 {
		t.Fatalf("histogram counts queue=%d service=%d, want 3/3", s.Queue.Count(), s.Service.Count())
	}
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars %v, want 2 buckets", s.Exemplars)
	}
	if s.Exemplars[0].Key != 1 {
		t.Fatalf("bucket kept key %d, want worst-total key 1", s.Exemplars[0].Key)
	}
	if s.Exemplars[0].Bucket >= s.Exemplars[1].Bucket {
		t.Fatal("exemplars not in bucket order")
	}

	// A later op in the 3µs bucket with a smaller total loses to the
	// incumbent while it is fresh, but wins once the incumbent is stale.
	observe(r, phaseTrace("get", 4, time.Microsecond, 3*time.Microsecond, base.Add(time.Second)))
	if got := r.Snapshot().Exemplars[0].Key; got != 1 {
		t.Fatalf("fresh incumbent displaced by faster op (key %d)", got)
	}
	observe(r, phaseTrace("get", 5, time.Microsecond, 3*time.Microsecond, base.Add(10*time.Minute)))
	if got := r.Snapshot().Exemplars[0].Key; got != 5 {
		t.Fatalf("stale incumbent survived TTL (key %d, want 5)", got)
	}
}

// TestPhaseRecorderStorageHook checks the storage.Hook implementation:
// read/write events count pages, fault-path events count faults and
// retries, and BeginOpWork resets the in-flight charge.
func TestPhaseRecorderStorageHook(t *testing.T) {
	r := obs.NewPhaseRecorder()
	r.BeginOpWork()
	r.StorageEvent(storage.EvRead, 1, rum.Base, 4096)
	r.StorageEvent(storage.EvWrite, 2, rum.Base, 4096)
	r.StorageEvent(storage.EvHit, 3, rum.Base, 0) // cache hit: no device page
	r.StorageEvent(storage.EvFault, 4, rum.Base, 0)
	r.StorageEvent(storage.EvTorn, 5, rum.Base, 0)
	r.StorageEvent(storage.EvRetry, 6, rum.Base, 0)
	pages, faults, retries := r.OpWork()
	if pages != 2 || faults != 2 || retries != 1 {
		t.Fatalf("op work %d/%d/%d, want 2/2/1", pages, faults, retries)
	}
	r.BeginOpWork()
	if p, f, re := r.OpWork(); p != 0 || f != 0 || re != 0 {
		t.Fatalf("BeginOpWork did not reset: %d/%d/%d", p, f, re)
	}
}

// TestPhaseSnapshotMergeAndDiff checks the cross-shard and cross-time
// algebra the rolling window relies on: Merge folds shards together (worse
// exemplar wins per bucket), and Diff over two snapshots isolates the
// window's traffic.
func TestPhaseSnapshotMergeAndDiff(t *testing.T) {
	base := time.Unix(100, 0)
	r0, r1 := obs.NewPhaseRecorder(), obs.NewPhaseRecorder()
	observe(r0, phaseTrace("get", 10, time.Microsecond, 3*time.Microsecond, base))
	observe(r1, phaseTrace("get", 11, 90*time.Microsecond, 3*time.Microsecond, base))
	observe(r1, phaseTrace("scan", 12, time.Microsecond, time.Millisecond, base))

	m := r0.Snapshot()
	m.Merge(r1.Snapshot())
	if m.Service.Count() != 3 {
		t.Fatalf("merged service count %d, want 3", m.Service.Count())
	}
	if len(m.Exemplars) != 2 {
		t.Fatalf("merged exemplars %v, want 2 buckets", m.Exemplars)
	}
	// Shard 1's key-11 op has the larger total in the shared bucket.
	if m.Exemplars[0].Key != 11 {
		t.Fatalf("merge kept key %d, want worse-total key 11", m.Exemplars[0].Key)
	}

	// Snapshot, add traffic, snapshot again: the diff sees only the delta.
	r := obs.NewPhaseRecorder()
	observe(r, phaseTrace("get", 1, time.Microsecond, 2*time.Microsecond, base))
	p0 := r.Snapshot()
	observe(r, phaseTrace("get", 2, time.Microsecond, 2*time.Microsecond, base))
	observe(r, phaseTrace("get", 3, time.Microsecond, 2*time.Microsecond, base))
	p1 := r.Snapshot()
	if d := p1.Service.Diff(p0.Service); d.Count() != 2 {
		t.Fatalf("window diff count %d, want 2", d.Count())
	}
	if c := p1.Clone(); c.Queue.Count() != p1.Queue.Count() || len(c.Exemplars) != len(p1.Exemplars) {
		t.Fatal("clone lost state")
	}
}

// TestWindowStatsPhases checks that StatsBetween surfaces queue/service
// quantiles when both points carry phase snapshots, and leaves them zero
// when tracing is off.
func TestWindowStatsPhases(t *testing.T) {
	base := time.Unix(100, 0)
	r := obs.NewPhaseRecorder()
	mk := func(at time.Time, ops uint64) *obs.WindowPoint {
		return &obs.WindowPoint{
			At:     at,
			Shards: []obs.ShardPoint{{Shard: 0, Ops: ops}},
			Phases: r.Snapshot(),
		}
	}
	p0 := mk(base, 0)
	for i := 0; i < 100; i++ {
		observe(r, phaseTrace("get", uint64(i), 4*time.Microsecond, 16*time.Microsecond, base))
	}
	p1 := mk(base.Add(time.Second), 100)
	st := obs.StatsBetween(p0, p1)
	if st.QueueP99 == 0 || st.ServiceP99 == 0 {
		t.Fatalf("phase quantiles missing: %+v", st)
	}
	if st.QueueP99 >= st.ServiceP99 {
		t.Fatalf("queue p99 %v should be below service p99 %v here", st.QueueP99, st.ServiceP99)
	}
	// Untraced points leave the decomposition zero.
	q0 := &obs.WindowPoint{At: base, Shards: p0.Shards}
	q1 := &obs.WindowPoint{At: base.Add(time.Second), Shards: p1.Shards}
	if st := obs.StatsBetween(q0, q1); st.QueueP99 != 0 || st.ServiceP99 != 0 {
		t.Fatalf("untraced window reported phase quantiles: %+v", st)
	}
}
