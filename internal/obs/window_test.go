package obs_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rum"
)

// point fabricates a snapshot: at seconds after t0, each of nShards shards
// has executed ops operations, read rd and written wr physical bytes, and
// holds length len records (all split evenly).
func point(t0 time.Time, seconds float64, nShards int, ops, rd, wr, logical uint64, lat *obs.Histogram) *obs.WindowPoint {
	p := &obs.WindowPoint{
		At:      t0.Add(time.Duration(seconds * float64(time.Second))),
		Latency: lat,
	}
	for i := 0; i < nShards; i++ {
		p.Shards = append(p.Shards, obs.ShardPoint{
			Shard: i,
			Ops:   ops / uint64(nShards),
			Meter: rum.Meter{
				BaseRead:       rd / uint64(nShards),
				BaseWritten:    wr / uint64(nShards),
				LogicalRead:    logical / uint64(nShards),
				LogicalWritten: logical / uint64(nShards),
			},
			Size: rum.SizeInfo{BaseBytes: 1000, AuxBytes: 250},
			Len:  10,
		})
	}
	return p
}

func TestRollingRingRetention(t *testing.T) {
	r := obs.NewRolling(4)
	if r.Last() != nil || r.Len() != 0 {
		t.Fatal("empty ring reports points")
	}
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		r.Push(point(t0, float64(i), 1, uint64(i*100), 0, 0, 0, nil))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
	pts := r.Points()
	if len(pts) != 4 {
		t.Fatalf("Points returned %d, want 4", len(pts))
	}
	for i, p := range pts {
		want := t0.Add(time.Duration(6+i) * time.Second)
		if !p.At.Equal(want) {
			t.Fatalf("point %d at %v, want %v (oldest-first order)", i, p.At, want)
		}
	}
	if last := r.Last(); !last.At.Equal(t0.Add(9 * time.Second)) {
		t.Fatalf("Last at %v, want t0+9s", last.At)
	}
}

func TestWindowStats(t *testing.T) {
	t0 := time.Unix(2000, 0)
	lat0, lat1 := obs.NewLatencyHistogram(), obs.NewLatencyHistogram()
	lat0.RecordDuration(time.Microsecond)
	lat1.Merge(lat0)
	for i := 0; i < 98; i++ {
		lat1.RecordDuration(3 * time.Microsecond)
	}
	lat1.RecordDuration(500 * time.Microsecond)

	r := obs.NewRolling(8)
	// 1000 ops and 64k read / 32k written bytes happen between the points,
	// over 10 seconds, with 16k logical bytes in each direction.
	r.Push(point(t0, 0, 4, 1000, 1<<20, 1<<20, 1<<18, lat0))
	r.Push(point(t0, 10, 4, 2000, 1<<20+65536, 1<<20+32768, 1<<18+16384, lat1))

	st, ok := r.Window(30 * time.Second)
	if !ok {
		t.Fatal("Window found no span")
	}
	if st.Span != 10*time.Second {
		t.Fatalf("Span = %v, want 10s", st.Span)
	}
	if st.Ops != 1000 {
		t.Fatalf("Ops = %d, want 1000", st.Ops)
	}
	if st.OpsPerSec != 100 {
		t.Fatalf("OpsPerSec = %g, want 100", st.OpsPerSec)
	}
	if st.ReadBytesPerOp != 65536.0/1000 {
		t.Fatalf("ReadBytesPerOp = %g", st.ReadBytesPerOp)
	}
	if st.WriteBytesPerOp != 32768.0/1000 {
		t.Fatalf("WriteBytesPerOp = %g", st.WriteBytesPerOp)
	}
	// Windowed amplification: 65536 physical / 16384 logical read = 4x;
	// 32768 / 16384 = 2x. MO from the newest point: 1250/1000 per shard.
	if st.RO != 4 || st.UO != 2 {
		t.Fatalf("window RO=%g UO=%g, want 4 and 2", st.RO, st.UO)
	}
	if st.MO != 1.25 {
		t.Fatalf("window MO = %g, want 1.25", st.MO)
	}
	// The window's latency distribution excludes lat0's observation: its
	// p50 sits in the 4096ns bucket (3µs recordings), p99 at ~512µs.
	if st.P50 != 4096*time.Nanosecond {
		t.Fatalf("window p50 = %v, want 4.096µs", st.P50)
	}
	if st.P99 < 500*time.Microsecond || st.P99 > time.Millisecond {
		t.Fatalf("window p99 = %v, want ≈512µs", st.P99)
	}
	if st.Balance != 1 {
		t.Fatalf("Balance = %g, want 1 for even shards", st.Balance)
	}
}

func TestWindowPicksCutoff(t *testing.T) {
	t0 := time.Unix(3000, 0)
	r := obs.NewRolling(16)
	for i := 0; i <= 10; i++ {
		r.Push(point(t0, float64(i), 1, uint64(i)*100, 0, 0, 0, nil))
	}
	// A 3-second window must span exactly the last 3 seconds, not all 10.
	st, ok := r.Window(3 * time.Second)
	if !ok {
		t.Fatal("no window")
	}
	if st.Span != 3*time.Second || st.Ops != 300 {
		t.Fatalf("Span=%v Ops=%d, want 3s / 300", st.Span, st.Ops)
	}
	// A window wider than retention clamps to the oldest retained point.
	st, _ = r.Window(time.Hour)
	if st.Span != 10*time.Second || st.Ops != 1000 {
		t.Fatalf("clamped Span=%v Ops=%d, want 10s / 1000", st.Span, st.Ops)
	}
	// A sampler stall: five points 1s apart, then nothing for 60s (a shard
	// blocked in a long compaction holds Snapshot). No retained point lies
	// inside a 10s window, so the stats span the nearest pair — not the
	// whole ring back to the oldest point.
	stalled := obs.NewRolling(16)
	for i := 0; i < 5; i++ {
		stalled.Push(point(t0, float64(i), 1, uint64(i)*10, 0, 0, 0, nil))
	}
	stalled.Push(point(t0, 64, 1, 1000, 0, 0, 0, nil))
	st, ok = stalled.Window(10 * time.Second)
	if !ok || st.Span != 60*time.Second || st.Ops != 960 {
		t.Fatalf("stalled Span=%v Ops=%d ok=%v, want the nearest pair: 1m0s / 960", st.Span, st.Ops, ok)
	}
	// One point only: no window.
	one := obs.NewRolling(4)
	one.Push(point(t0, 0, 1, 0, 0, 0, 0, nil))
	if _, ok := one.Window(time.Second); ok {
		t.Fatal("single-point ring produced a window")
	}
}

func TestShardBalanceSkew(t *testing.T) {
	t0 := time.Unix(4000, 0)
	p0 := point(t0, 0, 2, 0, 0, 0, 0, nil)
	p1 := point(t0, 1, 2, 0, 0, 0, 0, nil)
	p1.Shards[0].Ops = 900
	p1.Shards[1].Ops = 100
	st := obs.StatsBetween(p0, p1)
	if want := 100.0 / 900.0; st.Balance != want {
		t.Fatalf("Balance = %g, want %g", st.Balance, want)
	}
	// All idle: balanced by absence of evidence.
	if st := obs.StatsBetween(p0, point(t0, 1, 2, 0, 0, 0, 0, nil)); st.Balance != 1 {
		t.Fatalf("idle Balance = %g, want 1", st.Balance)
	}
}

// TestRollingConcurrentReaders hammers the ring with one writer and many
// readers; under -race this is the lock-free-read proof. Readers check that
// every traversal is time-ordered (a lapped read must retry, not return a
// torn sequence).
func TestRollingConcurrentReaders(t *testing.T) {
	r := obs.NewRolling(8)
	t0 := time.Unix(5000, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts := r.Points()
				for i := 1; i < len(pts); i++ {
					if pts[i].At.Before(pts[i-1].At) {
						t.Error("Points returned a torn, out-of-order sequence")
						return
					}
				}
				r.Window(time.Minute)
				r.Last()
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		r.Push(point(t0, float64(i), 2, uint64(i), uint64(i)*64, uint64(i)*64, uint64(i)*16, nil))
	}
	close(stop)
	wg.Wait()
}

func TestHistogramCloneAndDiff(t *testing.T) {
	h := obs.NewLatencyHistogram()
	h.RecordDuration(time.Microsecond)
	snap := h.Clone()
	h.RecordDuration(time.Millisecond)
	h.RecordDuration(2 * time.Millisecond)
	// Clone is independent: recording into h must not touch snap.
	if snap.Count() != 1 {
		t.Fatalf("clone Count = %d, want 1", snap.Count())
	}
	d := h.Diff(snap)
	if d.Count() != 2 {
		t.Fatalf("diff Count = %d, want 2", d.Count())
	}
	// The µs observation is excluded: the diff's p50 sits near 1ms.
	if got := d.QuantileDuration(0.5); got < time.Millisecond || got > 4*time.Millisecond {
		t.Fatalf("diff p50 = %v, want ≈1ms", got)
	}
	if d.Sum() != h.Sum()-snap.Sum() {
		t.Fatalf("diff Sum = %g, want %g", d.Sum(), h.Sum()-snap.Sum())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Diff of mismatched layouts did not panic")
		}
	}()
	h.Diff(obs.NewHistogram(obs.PowerOfTwoBounds(3)))
}
