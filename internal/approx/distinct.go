package approx

import (
	"math"
	"math/bits"
)

// Distinct is a HyperLogLog-style distinct-key estimator (Flajolet et al.,
// AofA 2007): m registers, each remembering the longest run of leading zeros
// any key hashed into it produced. It is the working-set half of the
// workload fingerprinter: the count-min sketch weighs keys by frequency,
// Distinct counts how many different keys the traffic touches at all, in
// m bytes regardless of cardinality.
//
// The hash is the repository's fixed finalizer mix, so an estimator is a
// pure function of the key *set* it saw: add order, duplicates, and merge
// order cannot change the registers. Merge is register-wise max — the
// estimate of a union — which is what lets per-shard estimators fold into a
// server-wide working set, and two window generations fold into a sliding
// window.
type Distinct struct {
	regs []uint8
	p    uint8 // log2(len(regs))
}

// distinctP is the default precision: 2^11 = 2048 registers, ~2% standard
// error, 2 KiB per estimator — cheap enough for one per shard per window
// generation.
const distinctP = 11

// NewDistinct returns an empty estimator with 2^p registers (p clamped to
// [4, 16]).
func NewDistinct(p int) *Distinct {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &Distinct{regs: make([]uint8, 1<<p), p: uint8(p)}
}

// NewDefaultDistinct returns an estimator at the default precision.
func NewDefaultDistinct() *Distinct { return NewDistinct(distinctP) }

// distinctHash is the 64-bit finalizer mix used across the repository —
// deterministic, well-scattered, and independent of map iteration order.
func distinctHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Add observes one key. Adding the same key again is a no-op on the
// registers, which is exactly the point.
func (d *Distinct) Add(key uint64) {
	h := distinctHash(key)
	idx := h >> (64 - d.p)
	rest := h<<d.p | 1<<(uint(d.p)-1) // low bits, sentinel caps the run length
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > d.regs[idx] {
		d.regs[idx] = rank
	}
}

// Merge folds o into d register-wise (max). Estimators must share a
// precision; mismatched sizes are a programming error and panic.
func (d *Distinct) Merge(o *Distinct) {
	if o == nil {
		return
	}
	if len(d.regs) != len(o.regs) {
		panic("approx: Distinct.Merge precision mismatch")
	}
	for i, r := range o.regs {
		if r > d.regs[i] {
			d.regs[i] = r
		}
	}
}

// Clone returns an independent copy.
func (d *Distinct) Clone() *Distinct {
	if d == nil {
		return nil
	}
	return &Distinct{regs: append([]uint8(nil), d.regs...), p: d.p}
}

// Clear zeroes the registers — the rotation primitive for windowed use.
func (d *Distinct) Clear() {
	for i := range d.regs {
		d.regs[i] = 0
	}
}

// Estimate returns the approximate number of distinct keys added. It uses
// the standard HyperLogLog raw estimator with the small-range (linear
// counting) correction, which is the regime window-sized working sets
// usually occupy.
func (d *Distinct) Estimate() float64 {
	m := float64(len(d.regs))
	var sum float64
	zeros := 0
	for _, r := range d.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	raw := alpha * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}
