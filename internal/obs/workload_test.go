package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// feedMix drives ops 0..n-1 through the recorder with the given kind
// fractions over a key universe of keys (uniform unless zipf).
func feedMix(r *WorkloadRecorder, n int, get, ins, upd, del, scan float64, keys int, zipf bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var z *rand.Zipf
	if zipf {
		z = rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	}
	for i := 0; i < n; i++ {
		var k uint64
		if zipf {
			k = z.Uint64()
		} else {
			k = uint64(rng.Intn(keys))
		}
		switch f := rng.Float64(); {
		case f < get:
			r.RecordOp(workload.OpGet, k)
		case f < get+ins:
			r.RecordOp(workload.OpInsert, k)
		case f < get+ins+upd:
			r.RecordOp(workload.OpUpdate, k)
		case f < get+ins+upd+del:
			r.RecordOp(workload.OpDelete, k)
		default:
			r.RecordScan(64 + rng.Intn(64))
		}
	}
}

func TestWorkloadRecorderRotation(t *testing.T) {
	r := NewWorkloadRecorder(1000, 8)
	feedMix(r, 3500, 0.90, 0.05, 0.05, 0, 0, 256, false, 1)
	s := r.Snapshot()
	if s.Windows != 3 {
		t.Fatalf("3500 ops at window 1000: %d windows, want 3", s.Windows)
	}
	if len(s.Recent) != 3 || s.Last == nil || s.Last.Window != 3 {
		t.Fatalf("recent=%d last=%v", len(s.Recent), s.Last)
	}
	var cum uint64
	for _, c := range s.Cum {
		cum += c
	}
	if cum != 3500 {
		t.Fatalf("cumulative ops %d, want 3500", cum)
	}
	if got := s.Last.Total(); got != 1000 {
		t.Fatalf("window ops %d, want 1000", got)
	}
	st := s.Last.Stats()
	if st.Get < 0.85 || st.Get > 0.95 {
		t.Fatalf("get fraction %.3f, want ≈0.90", st.Get)
	}
	if st.Distinct < 200 || st.Distinct > 320 {
		t.Fatalf("distinct %.0f over 256-key universe, want ≈256", st.Distinct)
	}
	// The final partial window (500 ops) is still accumulating; Rotate
	// forces it out for end-of-run reporting.
	r.Rotate()
	if s2 := r.Snapshot(); s2.Windows != 4 || s2.Last.Total() != 500 {
		t.Fatalf("forced rotation: windows=%d lastOps=%d, want 4/500", s2.Windows, s2.Last.Total())
	}
	r.Rotate() // empty window: no-op
	if s3 := r.Snapshot(); s3.Windows != 4 {
		t.Fatalf("empty rotation bumped windows to %d", s3.Windows)
	}
}

// TestRotationAllocatesOnlyTheFingerprint pins the rotation's garbage: once
// the fingerprint and drift-event rings are at capacity, completing a window
// allocates the new fingerprint's own scan histogram (2), distinct registers
// (2) and hot list (1), and nothing else — no replacement window state, no
// regrown ring, no regression scratch — and the recording between rotations
// (count-min, top-k compaction, estimator) allocates nothing at all.
func TestRotationAllocatesOnlyTheFingerprint(t *testing.T) {
	const windowOps, keep = 512, 4
	r := NewWorkloadRecorder(windowOps, keep)
	w := 0
	window := func() {
		// Alternate read-mostly skew with unique-key ingest: every rotation
		// latches a drift event, and the ingest half churns the top-k table.
		r.RecordScan(16)
		for i := 1; i < windowOps; i++ {
			if w%2 == 0 {
				r.RecordOp(workload.OpGet, uint64(i%8))
			} else {
				r.RecordOp(workload.OpInsert, uint64(w*windowOps+i))
			}
		}
		w++
	}
	for w < 3*keep {
		window()
	}
	before := r.Snapshot()
	perRotation := testing.AllocsPerRun(20, window)
	after := r.Snapshot()
	if n := after.Windows - before.Windows; n != 21 || after.DriftCount-before.DriftCount != n ||
		len(after.Events) != keep || len(after.Recent) != keep {
		t.Fatalf("rings not exercised at capacity: %d windows and %d drifts in 21 calls, %d and %d retained of %d",
			n, after.DriftCount-before.DriftCount, len(after.Events), len(after.Recent), keep)
	}
	if perRotation > 5 {
		t.Fatalf("a rotation allocates %.0f objects, want the fingerprint's own 5", perRotation)
	}
}

func TestWorkloadSkewSignals(t *testing.T) {
	uni := NewWorkloadRecorder(4096, 4)
	feedMix(uni, 4096, 1, 0, 0, 0, 0, 4096, false, 2)
	zip := NewWorkloadRecorder(4096, 4)
	feedMix(zip, 4096, 1, 0, 0, 0, 0, 4096, true, 2)
	u, z := uni.Snapshot().Last.Stats(), zip.Snapshot().Last.Stats()
	if u.HotShare >= z.HotShare {
		t.Fatalf("uniform hot share %.3f ≥ zipf hot share %.3f", u.HotShare, z.HotShare)
	}
	if z.HotShare < 0.3 {
		t.Fatalf("zipf(1.2) hot share %.3f, want ≥ 0.3", z.HotShare)
	}
	if u.ZipfSlope > 0.5 {
		t.Fatalf("uniform zipf slope %.3f, want ≈0", u.ZipfSlope)
	}
	if z.ZipfSlope < 0.7 {
		t.Fatalf("zipf(1.2) slope %.3f, want ≥ 0.7", z.ZipfSlope)
	}
	if u.Distinct <= z.Distinct {
		t.Fatalf("uniform working set %.0f ≤ zipf working set %.0f", u.Distinct, z.Distinct)
	}
}

func TestWorkloadDriftLatch(t *testing.T) {
	r := NewWorkloadRecorder(2048, 16)
	// Two steady read-heavy windows, then a hard phase change to
	// write-heavy scanning traffic.
	feedMix(r, 4096, 0.90, 0.05, 0.05, 0, 0, 1024, false, 3)
	if s := r.Snapshot(); s.DriftCount != 0 {
		t.Fatalf("steady phase latched %d drift events", s.DriftCount)
	}
	feedMix(r, 2048, 0.10, 0.50, 0.20, 0.05, 0.15, 1024, false, 3)
	s := r.Snapshot()
	if s.DriftCount == 0 || len(s.Events) == 0 {
		t.Fatal("phase change latched no drift event")
	}
	ev := s.Events[len(s.Events)-1]
	if ev.Score < DefaultDriftThreshold {
		t.Fatalf("latched event below threshold: %.3f", ev.Score)
	}
	if ev.From.Get < 0.8 || ev.To.Get > 0.3 {
		t.Fatalf("event sides wrong way round: from.get=%.2f to.get=%.2f", ev.From.Get, ev.To.Get)
	}
	if s.Drift < DefaultDriftThreshold {
		t.Fatalf("latest drift %.3f below threshold after phase change", s.Drift)
	}
}

func TestDriftScoreProperties(t *testing.T) {
	a := FingerprintStats{Get: 0.9, Insert: 0.1, HotShare: 0.4, Distinct: 1000, ScanP50: 0}
	if got := DriftScore(a, a); got != 0 {
		t.Fatalf("self-distance %.3f, want 0", got)
	}
	b := FingerprintStats{Insert: 0.9, Get: 0.1, HotShare: 0.1, Distinct: 64000, ScanP50: 256}
	if DriftScore(a, b) != DriftScore(b, a) {
		t.Fatal("drift score is not symmetric")
	}
	if got := DriftScore(a, b); got < 1 {
		t.Fatalf("full phase change scores %.3f, want ≥ 1", got)
	}
}

func TestWorkloadSnapshotMergeDisjointShards(t *testing.T) {
	// Two shards with disjoint key spaces, same cadence — the merged hot
	// list must interleave both shards' heavy hitters exactly.
	a, b := NewWorkloadRecorder(1024, 4), NewWorkloadRecorder(1024, 4)
	for i := 0; i < 1024; i++ {
		a.RecordOp(workload.OpGet, uint64(i%4)) // shard A hammers keys 0..3
	}
	for i := 0; i < 1024; i++ {
		b.RecordOp(workload.OpInsert, uint64(1000+i%2)) // shard B hammers 1000,1001
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Cum[workload.OpGet] != 1024 || s.Cum[workload.OpInsert] != 1024 {
		t.Fatalf("merged cum %v", s.Cum)
	}
	if s.Last == nil || s.Last.Total() != 2048 {
		t.Fatalf("merged last window ops = %v, want 2048", s.Last)
	}
	hot := map[uint64]bool{}
	for _, h := range s.Last.Hot {
		hot[h.Key] = true
	}
	for _, want := range []uint64{0, 1, 2, 3, 1000, 1001} {
		if !hot[want] {
			t.Fatalf("merged hot list lost key %d: %v", want, s.Last.Hot)
		}
	}
	if ws := s.Last.DistinctKeys(); math.Abs(ws-6) > 1 {
		t.Fatalf("merged working set %.1f, want ≈6", ws)
	}
	// Merging into an empty snapshot adopts the other side.
	empty := NewWorkloadRecorder(1024, 4).Snapshot()
	empty.Merge(a.Snapshot())
	if empty.Last == nil || empty.Last.Total() != 1024 {
		t.Fatal("merge into empty snapshot lost the fingerprint")
	}
}

func TestWorkloadSnapshotImmutable(t *testing.T) {
	r := NewWorkloadRecorder(512, 4)
	feedMix(r, 512, 0.5, 0.5, 0, 0, 0, 64, false, 5)
	s1 := r.Snapshot()
	before := s1.Last.Stats()
	feedMix(r, 2048, 0, 0, 0, 1, 0, 64, false, 6)
	after := s1.Last.Stats()
	if before != after {
		t.Fatalf("snapshot mutated by later recording:\n before %+v\n after  %+v", before, after)
	}
}

func TestRollingWindowRejectsNonPositive(t *testing.T) {
	r := NewRolling(4)
	base := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		r.Push(&WindowPoint{At: base.Add(time.Duration(i) * time.Second)})
	}
	for _, w := range []time.Duration{0, -time.Second} {
		if _, ok := r.Window(w); ok {
			t.Fatalf("Window(%v) accepted", w)
		}
	}
	if _, ok := r.Window(time.Second); !ok {
		t.Fatal("positive window rejected on a full ring")
	}
}

func TestRollingPartiallyFilled(t *testing.T) {
	r := NewRolling(8)
	if _, ok := r.Window(time.Second); ok {
		t.Fatal("empty ring produced a window")
	}
	base := time.Unix(100, 0)
	r.Push(&WindowPoint{At: base, Shards: []ShardPoint{{Ops: 10}}})
	if _, ok := r.Window(time.Second); ok {
		t.Fatal("single point produced a window")
	}
	if r.Len() != 1 || len(r.Points()) != 1 {
		t.Fatalf("len=%d points=%d after one push", r.Len(), len(r.Points()))
	}
	r.Push(&WindowPoint{At: base.Add(time.Second), Shards: []ShardPoint{{Ops: 30}}})
	st, ok := r.Window(10 * time.Second)
	if !ok || st.Ops != 20 || st.Span != time.Second {
		t.Fatalf("two-point ring: ok=%v ops=%d span=%v", ok, st.Ops, st.Span)
	}
	pts := r.Points()
	if len(pts) != 2 || !pts[0].At.Before(pts[1].At) {
		t.Fatalf("partially-filled traversal out of order: %v", pts)
	}
}

// TestRollingWrapAroundOrder hammers a small ring with a concurrent reader:
// every traversal must come back time-ordered even while pushes reuse
// slots. Before the seqlock this could observe the newest point in the
// oldest slot and return a decreasing sequence.
func TestRollingWrapAroundOrder(t *testing.T) {
	r := NewRolling(3)
	base := time.Unix(0, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Push(&WindowPoint{At: base.Add(time.Duration(i) * time.Millisecond)})
		}
	}()
	for i := 0; i < 20000; i++ {
		pts := r.Points()
		for j := 1; j < len(pts); j++ {
			if pts[j].At.Before(pts[j-1].At) {
				close(stop)
				t.Fatalf("iteration %d: points out of order: %v then %v", i, pts[j-1].At, pts[j].At)
			}
		}
	}
	close(stop)
	wg.Wait()
}
