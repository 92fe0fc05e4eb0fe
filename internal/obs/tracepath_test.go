package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestHistogramBucketMatchesBisection holds the bit-length bucket of the
// power-of-two layout to the bisection it replaced, through all three entry
// points, at every edge the layout has: 0, 1, each 2^k and its neighbours,
// fractions, past the last bound, negatives, infinities and NaN.
func TestHistogramBucketMatchesBisection(t *testing.T) {
	values := []float64{0, 0.5, 1, 1.5, -1, -1e30, math.Inf(-1), math.Inf(1), math.NaN(),
		math.MaxInt64, math.MaxUint64, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for k := 1; k <= 40; k++ {
		p := math.Ldexp(1, k)
		values = append(values, p-1, p-0.5, p, p+0.5, p+1)
	}
	layouts := map[string][]float64{
		"latency":     PowerOfTwoBounds(latencyBuckets),
		"batch":       PowerOfTwoBounds(batchBuckets),
		"scan-rows":   PowerOfTwoBounds(scanRowsBuckets),
		"single":      PowerOfTwoBounds(1),
		"widest":      PowerOfTwoBounds(63),
		"too-wide":    PowerOfTwoBounds(64), // 2^63 does not fit the integer path
		"decades":     {1, 10, 100, 1000},
		"almost-pow2": {1, 2, 4, 9},
		"from-two":    {2, 4, 8},
		"empty":       {},
	}
	for name, bounds := range layouts {
		h, ref := NewHistogram(bounds), newBisectHistogram(bounds)
		wantPow2 := name == "latency" || name == "batch" || name == "scan-rows" || name == "single" || name == "widest"
		if h.pow2 != wantPow2 {
			t.Fatalf("%s: power-of-two layout detected = %v, want %v", name, h.pow2, wantPow2)
		}
		for _, v := range values {
			if got, want := h.BucketIndex(v), bisectBucket(bounds, v); got != want {
				t.Fatalf("%s: BucketIndex(%v) = %d, bisection gives %d", name, v, got, want)
			}
			h.Record(v)
			ref.record(v)
		}
		for _, d := range []time.Duration{-time.Hour, -1, 0, 1, 2, 3, 1023, 1024, 1025, time.Second, 1 << 39, 1<<39 + 1, math.MaxInt64} {
			want := bisectBucket(bounds, math.Max(0, float64(d)))
			if got := h.RecordDuration(d); got != want {
				t.Fatalf("%s: RecordDuration(%d) counted in bucket %d, bisection gives %d", name, d, got, want)
			}
			ref.recordDuration(d)
		}
		// Sums of NaN-free floats added in one order are bit-equal, so the
		// whole histogram is: counts, n, sum, max.
		if !reflect.DeepEqual(h, ref.h) {
			t.Fatalf("%s: histogram diverged from the bisecting reference\n got  %+v\n want %+v", name, h, ref.h)
		}
	}
}

// syntheticTraces is a stream built to sit on every admission edge: a handful
// of distinct totals (so equal totals are common), service times across a few
// buckets, zero totals, and a clock that mostly creeps but sometimes jumps
// past the flight recorder's TTL or the exemplars' minute.
func syntheticTraces(rng *rand.Rand, n int, slowTTL time.Duration) []SlowTrace {
	at := time.Unix(1_700_000_000, 0)
	out := make([]SlowTrace, n)
	for i := range out {
		switch r := rng.Intn(1000); {
		case r < 3:
			at = at.Add(exemplarTTL + time.Duration(rng.Intn(3))*time.Second)
		case r < 30 && slowTTL > 0:
			at = at.Add(slowTTL + time.Duration(rng.Intn(2)))
		default:
			at = at.Add(time.Duration(rng.Intn(2000)))
		}
		service := time.Duration(rng.Intn(6)) * 700 * time.Nanosecond
		queue := time.Duration(rng.Intn(5)) * 900 * time.Nanosecond
		if rng.Intn(50) == 0 {
			service *= 1000 // a slow op now and then
		}
		out[i] = SlowTrace{
			At: at, Shard: i % 3, Op: "get", Key: uint64(i), Batch: 64,
			Queue: queue, Service: service, Total: queue + service,
			Pages: uint64(rng.Intn(4)), Run: 1 + i%16,
		}
	}
	return out
}

// TestLazyTracePathMatchesEager feeds the same synthetic op stream to the
// eager reference (a whole SlowTrace for every op) and to the shipped path
// the way a shard drives it — ObserveOp and Admits on integers, the trace only
// for an op one of them admits — and requires identical phase snapshots and
// flight-recorder contents, with and without a slow-log TTL.
func TestLazyTracePathMatchesEager(t *testing.T) {
	for _, slowTTL := range []time.Duration{0, 50 * time.Microsecond, 3 * time.Second} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(12)
			rec, log := NewPhaseRecorder(), NewSlowLog(k, slowTTL)
			refRec, refLog := newEagerPhases(), &eagerSlowLog{slots: make([]*SlowTrace, k), ttl: slowTTL}
			assembled := 0
			traces := syntheticTraces(rng, 20000, slowTTL)
			for i, tr := range traces {
				refRec.observe(tr)
				refLog.offer(tr)

				at := tr.At.UnixNano()
				bucket, exemplar := rec.ObserveOp(tr.Queue, tr.Service, tr.Total, at)
				retain := log.Admits(tr.Total, at)
				if exemplar || retain {
					assembled++
					if exemplar {
						rec.SetExemplar(bucket, &tr)
					}
					if retain {
						log.Offer(tr)
					}
				}
				if i%1000 == 999 || i == len(traces)-1 {
					if got, want := rec.Snapshot(), refRec.snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("ttl %v seed %d op %d: phase snapshot diverged\n got  %+v\n want %+v", slowTTL, seed, i, got, want)
					}
					if got, want := log.Snapshot(), refLog.snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("ttl %v seed %d op %d: slow log diverged\n got  %v\n want %v", slowTTL, seed, i, got, want)
					}
				}
			}
			// The point of the gates: a trace is assembled for a record-setter
			// only. This stream ties a sixth of its ops with an incumbent on
			// purpose (ties admit); real nanosecond totals almost never tie.
			if slowTTL == 0 && assembled > len(traces)/4 {
				t.Fatalf("seed %d: %d of %d ops had a trace assembled; the gates admit almost everything", seed, assembled, len(traces))
			}
		}
	}
}
