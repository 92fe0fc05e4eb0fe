package obs

import (
	"math"
	"time"
)

// Latency support: the serving layer (internal/serve and the bench `serve`
// experiment) measures request latency into the same fixed-bucket Histogram
// used for amplification and page counts — power-of-two nanosecond buckets,
// merged across clients with Histogram.Merge. Latency distributions are
// wall-clock facts and therefore live outside the determinism contract;
// callers print them to stderr or mark them non-deterministic.

// latencyBuckets covers 1ns .. ~2^39ns (≈9 minutes) — wider than any
// per-batch latency a simulated serving run can produce.
const latencyBuckets = 40

// NewLatencyHistogram returns a histogram with power-of-two nanosecond
// buckets, for recording time.Duration observations via RecordDuration.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(PowerOfTwoBounds(latencyBuckets))
}

// RecordDuration counts one latency observation (a negative one as zero) and
// returns the bucket that counted it.
func (h *Histogram) RecordDuration(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	return h.record(float64(d.Nanoseconds()))
}

// QuantileDuration returns the q-quantile as a duration, with the same
// one-bucket overestimate as Quantile. Observations beyond the last bucket
// saturate at the largest bound instead of +Inf so the result stays a valid
// duration.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		v = h.bounds[len(h.bounds)-1]
	}
	return time.Duration(int64(v))
}
