package obs

import (
	"math"
	"math/bits"
)

// Histogram is a fixed-bucket (HDR-style) histogram: values are counted
// against a static, monotonically increasing list of upper bounds, and
// quantiles are answered with bounded relative error (one bucket width)
// without retaining samples. The bucket layout used throughout this package
// is powers of two, which matches the log-scale nature of amplification
// factors, page counts and latencies; NewHistogram recognizes it from the
// bounds, and finding a value's bucket is then one bit-length instruction.
// Any other layout is searched by bisection.
type Histogram struct {
	bounds []float64 // inclusive upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	pow2   bool      // bounds are exactly 1, 2, 4, … 2^(len-1)
	n      uint64
	sum    float64
}

// PowerOfTwoBounds returns the bucket bounds 1, 2, 4, … 2^(n-1).
func PowerOfTwoBounds(n int) []float64 {
	b := make([]float64, n)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// NewHistogram creates a histogram over the given inclusive upper bounds,
// which must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1), pow2: isPowerOfTwoLayout(bounds)}
}

// isPowerOfTwoLayout reports whether bounds is PowerOfTwoBounds(len(bounds)).
func isPowerOfTwoLayout(bounds []float64) bool {
	if len(bounds) == 0 || len(bounds) > 63 {
		return false
	}
	for i, b := range bounds {
		if b != float64(uint64(1)<<i) {
			return false
		}
	}
	return true
}

// Record counts one observation of v.
func (h *Histogram) Record(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.record(v)
}

// record counts v, which is not NaN, and returns the bucket that counted it.
func (h *Histogram) record(v float64) int {
	h.n++
	if !math.IsInf(v, 1) {
		h.sum += v
	}
	b := h.BucketIndex(v)
	h.counts[b]++
	return b
}

// Merge folds o's observations into h. Both histograms must share the same
// bucket layout (they always do inside this package, where every family uses
// a fixed power-of-two layout); mismatched layouts panic rather than silently
// mis-binning.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.bounds) != len(h.bounds) {
		panic("obs: merge of histograms with different bucket layouts")
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}

// Clone returns an independent copy of h. The rolling-window plane clones
// cumulative histograms at sampling instants so later Diff calls can derive
// per-window distributions without retaining samples.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		bounds: h.bounds, // bounds are immutable after construction
		pow2:   h.pow2,
		counts: make([]uint64, len(h.counts)),
		n:      h.n,
		sum:    h.sum,
	}
	copy(c.counts, h.counts)
	return c
}

// reset empties h in place, keeping its layout — the rotation primitive of a
// windowed histogram.
func (h *Histogram) reset() {
	clear(h.counts)
	h.n, h.sum = 0, 0
}

// Diff returns the observations recorded in h since the earlier snapshot
// prev: per-bucket count deltas, count and sum deltas. prev must be a
// snapshot of the same histogram's past (same layout, counts no greater
// than h's); mismatched layouts panic like Merge.
func (h *Histogram) Diff(prev *Histogram) *Histogram {
	if len(prev.bounds) != len(h.bounds) {
		panic("obs: diff of histograms with different bucket layouts")
	}
	d := &Histogram{
		bounds: h.bounds,
		pow2:   h.pow2,
		counts: make([]uint64, len(h.counts)),
		n:      h.n - prev.n,
		sum:    h.sum - prev.sum,
	}
	for i := range d.counts {
		d.counts[i] = h.counts[i] - prev.counts[i]
	}
	return d
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all finite recorded observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (0 <= q <= 1). Observations beyond the last bound report +Inf;
// an empty histogram reports 0. The answer overestimates the true quantile
// by at most one bucket width — the HDR tradeoff.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// BucketIndex returns the index of the bucket that counts v: the first
// bound >= v, or len(bounds) for the implicit +Inf bucket (which is also
// where NaN lands). On the power-of-two layout that is the bit length of
// ceil(v)-1: 2^(k-1) < v <= 2^k has k bits below it.
func (h *Histogram) BucketIndex(v float64) int {
	if h.pow2 {
		switch {
		case v <= 1:
			return 0
		case v <= h.bounds[len(h.bounds)-1]:
			return bits.Len64(uint64(math.Ceil(v)) - 1)
		default:
			return len(h.bounds)
		}
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Buckets returns the bucket upper bounds and their cumulative counts in
// Prometheus order: the final implicit +Inf bucket equals Count(). The
// returned slices are freshly allocated.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		cumulative[i] = cum
	}
	return bounds, cumulative[:len(h.bounds)+1]
}
