// Package bloom implements Bloom filters (Bloom, CACM 1970), the canonical
// space-optimized lossy structure at the right corner of Figure 1: a few
// bits per key buy constant-time membership with a tunable false-positive
// rate, at zero false negatives.
//
// Two variants are provided:
//
//   - Filter: the classic bitmap with k double-hashed probes. The LSM tree
//     (internal/lsm) attaches one per run — the paper's "iterative logs
//     enhanced by probabilistic data structures".
//   - Quotient (quotient.go): a quotient filter, supporting deletes and
//     resizing.
package bloom

import (
	"math"

	"repro/internal/rum"
)

const wordBytes = 8

// Filter is a classic Bloom filter over uint64 keys. Not safe for concurrent
// use.
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     int    // probes per key
	meter *rum.Meter
}

// NewFilter sizes a filter for expectedN keys at bitsPerKey bits each
// (clamped to [1, 64]), choosing the optimal probe count k = bpk·ln2.
// A nil meter gets a private one.
func NewFilter(expectedN int, bitsPerKey float64, meter *rum.Meter) *Filter {
	if meter == nil {
		meter = &rum.Meter{}
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	if bitsPerKey > 64 {
		bitsPerKey = 64
	}
	if expectedN < 1 {
		expectedN = 1
	}
	m := uint64(math.Ceil(float64(expectedN) * bitsPerKey))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(bitsPerKey * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{
		bits:  make([]uint64, (m+63)/64),
		m:     m,
		k:     k,
		meter: meter,
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// probes returns the double-hashing base and step for key.
func probes(key uint64) (h1, h2 uint64) {
	h1 = mix(key)
	h2 = mix(key ^ 0x9e3779b97f4a7c15)
	h2 |= 1 // odd step visits all positions
	return
}

// Add inserts key, charging one word write per probe.
func (f *Filter) Add(key uint64) {
	h, step := probes(key)
	for i := 0; i < f.k; i++ {
		pos := h % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
		h += step
	}
	f.meter.CountWrite(rum.Aux, f.k*wordBytes)
}

// MayContainMetered reports whether key may be present: false means
// definitely absent. One word read is charged to m per probe
// (short-circuiting on the first zero bit). Once the filter is fully built
// it reads only immutable state, so concurrent snapshot readers — which
// must not touch the structure's shared accounting — may call it from any
// goroutine, each with its own meter.
func (f *Filter) MayContainMetered(key uint64, m *rum.Meter) bool {
	h, step := probes(key)
	for i := 0; i < f.k; i++ {
		pos := h % f.m
		m.CountRead(rum.Aux, wordBytes)
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
		h += step
	}
	return true
}

// SizeBytes returns the filter's storage footprint.
func (f *Filter) SizeBytes() uint64 { return uint64(len(f.bits)) * wordBytes }

// Meter returns the RUM accounting.
func (f *Filter) Meter() *rum.Meter { return f.meter }
