package obs_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func trace(total time.Duration, at time.Time) obs.SlowTrace {
	return obs.SlowTrace{
		At: at, Op: "get", Key: uint64(total),
		Queue: total / 4, Service: total - total/4, Total: total,
	}
}

// TestSlowLogKeepsSlowestK drives a full pass of distinct latencies through
// a small ring and checks exactly the slowest K survive, sorted slowest
// first.
func TestSlowLogKeepsSlowestK(t *testing.T) {
	l := obs.NewSlowLog(3, 0)
	base := time.Unix(100, 0)
	for i := 1; i <= 10; i++ {
		l.Offer(trace(time.Duration(i)*time.Millisecond, base))
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	for i, want := range []time.Duration{10, 9, 8} {
		if got[i].Total != want*time.Millisecond {
			t.Fatalf("slot %d: total %v, want %v", i, got[i].Total, want*time.Millisecond)
		}
	}
	// A fast op must not displace anything once the ring is full.
	l.Offer(trace(time.Millisecond, base))
	if got := l.Snapshot(); got[len(got)-1].Total != 8*time.Millisecond {
		t.Fatalf("fast op displaced a retained trace: %v", got)
	}
}

// TestSlowLogRejectDoesNotAllocate pins the documented fast path: an offer
// at or below the floor of a full ring — with and without a TTL — must not
// copy the trace to the heap.
func TestSlowLogRejectDoesNotAllocate(t *testing.T) {
	base := time.Unix(100, 0)
	for _, ttl := range []time.Duration{0, time.Hour} {
		l := obs.NewSlowLog(3, ttl)
		for i := 1; i <= 3; i++ {
			l.Offer(trace(time.Duration(i)*time.Second, base))
		}
		fast := trace(time.Millisecond, base)
		if allocs := testing.AllocsPerRun(100, func() { l.Offer(fast) }); allocs != 0 {
			t.Fatalf("ttl=%v: rejected offer allocated %v times, want 0", ttl, allocs)
		}
		if got := l.Snapshot(); got[len(got)-1].Total != time.Second {
			t.Fatalf("ttl=%v: rejected offers changed the ring: %v", ttl, got)
		}
	}
}

// TestSlowLogTTLEviction checks that with a TTL, an aged-out trace becomes
// evictable by an op that would otherwise be below the floor — the guard
// against a startup burst freezing the ring.
func TestSlowLogTTLEviction(t *testing.T) {
	l := obs.NewSlowLog(2, time.Second)
	base := time.Unix(100, 0)
	l.Offer(trace(10*time.Millisecond, base))
	l.Offer(trace(9*time.Millisecond, base))
	// Below the floor but two seconds later: the stale champions age out.
	l.Offer(trace(time.Millisecond, base.Add(2*time.Second)))
	got := l.Snapshot()
	if len(got) != 2 {
		t.Fatalf("retained %d traces, want 2", len(got))
	}
	found := false
	for _, tr := range got {
		if tr.Total == time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("aged ring refused a fresh trace: %v", got)
	}

	// Without aging, the same below-floor offer is dropped.
	l2 := obs.NewSlowLog(2, time.Second)
	l2.Offer(trace(10*time.Millisecond, base))
	l2.Offer(trace(9*time.Millisecond, base))
	l2.Offer(trace(time.Millisecond, base.Add(time.Millisecond)))
	for _, tr := range l2.Snapshot() {
		if tr.Total == time.Millisecond {
			t.Fatal("fresh ring admitted a below-floor trace")
		}
	}
}

// TestSlowLogConcurrent hammers one ring from several goroutines under the
// race detector and checks the invariant that survives concurrency: the
// retained set is exactly the K largest totals offered.
func TestSlowLogConcurrent(t *testing.T) {
	const writers, perWriter, k = 4, 200, 8
	l := obs.NewSlowLog(k, 0)
	base := time.Unix(100, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Totals 1..800 ms, all distinct across writers.
				total := time.Duration(w*perWriter+i+1) * time.Millisecond
				l.Offer(trace(total, base))
				if i%32 == 0 {
					l.Snapshot() // readers must never block or tear
				}
			}
		}(w)
	}
	wg.Wait()
	got := l.Snapshot()
	if len(got) != k {
		t.Fatalf("retained %d traces, want %d", len(got), k)
	}
	for i, tr := range got {
		want := time.Duration(writers*perWriter-i) * time.Millisecond
		if tr.Total != want {
			t.Fatalf("slot %d: total %v, want %v", i, tr.Total, want)
		}
	}
}

// TestSlowTraceString pins the one-line report form rumserve prints at
// shutdown: every decomposition and work field, and run= only for an op
// that shared its run.
func TestSlowTraceString(t *testing.T) {
	for _, tc := range []struct {
		tr   obs.SlowTrace
		want string
	}{
		{obs.SlowTrace{Op: "insert", Key: 7, Shard: 1, Batch: 1, Run: 1,
			Queue: 2 * time.Microsecond, Service: 3 * time.Microsecond, Total: 5 * time.Microsecond},
			"insert key=7                    shard=1 batch=1 total=5µs        queue=2µs        service=3µs        pages=0 faults=0 retries=0"},
		{obs.SlowTrace{Op: "get", Key: 42, Shard: 3, Batch: 32, Run: 12,
			Queue: 1500 * time.Microsecond, Service: 250 * time.Microsecond, Total: 1750 * time.Microsecond,
			Pages: 9, Faults: 1, Retries: 2},
			"get    key=42                   shard=3 batch=32 total=1.75ms     queue=1.5ms      service=250µs      pages=9 faults=1 retries=2 run=12"},
		{obs.SlowTrace{Op: "get", Key: 1, Batch: 4, Service: 1499 * time.Nanosecond, Total: 1499 * time.Nanosecond},
			"get    key=1                    shard=0 batch=4 total=1µs        queue=0s         service=1µs        pages=0 faults=0 retries=0"},
	} {
		if got := tc.tr.String(); got != tc.want {
			t.Errorf("String() =\n%q\nwant\n%q", got, tc.want)
		}
	}
}
