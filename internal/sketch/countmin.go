// Package sketch implements the count-min sketch (Cormode & Muthukrishnan,
// J. Algorithms 2005), the paper's example of a lossy hash-based index in the
// space-optimized corner of Figure 1: sublinear space buys point estimates
// with bounded one-sided error, and no exact reads are possible at all —
// the extreme end of trading read fidelity for memory.
package sketch

import (
	"fmt"
	"math"

	"repro/internal/rum"
)

const counterSize = 8

// CountMin estimates per-key counts within factor epsilon·total with
// probability 1-delta, in d = ln(1/delta) rows of w = e/epsilon counters.
// Not safe for concurrent use.
type CountMin struct {
	rows  [][]uint64
	w     uint64
	d     int
	meter *rum.Meter
}

// New creates a sketch with error bound epsilon and failure probability
// delta (defaults 0.01 and 0.01 when out of range). A nil meter gets a
// private one.
func New(epsilon, delta float64, meter *rum.Meter) *CountMin {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.01
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	w := uint64(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	rows := make([][]uint64, d)
	for i := range rows {
		rows[i] = make([]uint64, w)
	}
	return &CountMin{rows: rows, w: w, d: d, meter: meter}
}

// Name identifies the sketch and its shape.
func (c *CountMin) Name() string { return fmt.Sprintf("countmin(%dx%d)", c.d, c.w) }

func (c *CountMin) hash(key uint64, row int) uint64 {
	x := key ^ (uint64(row+1) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x % c.w
}

// Add increments key's count by delta, one counter write per row.
func (c *CountMin) Add(key uint64, delta uint64) {
	for i := 0; i < c.d; i++ {
		c.rows[i][c.hash(key, i)] += delta
	}
	c.meter.CountWrite(rum.Aux, c.d*counterSize)
}

// Estimate returns an upper bound on key's count (never an underestimate),
// one counter read per row.
func (c *CountMin) Estimate(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for i := 0; i < c.d; i++ {
		if v := c.rows[i][c.hash(key, i)]; v < min {
			min = v
		}
	}
	c.meter.CountRead(rum.Aux, c.d*counterSize)
	return min
}

// Clear zeroes every counter, keeping the shape (and therefore the hash
// family) intact — the rotation primitive for windowed use.
func (c *CountMin) Clear() {
	for i := range c.rows {
		row := c.rows[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// Depth returns the number of rows d.
func (c *CountMin) Depth() int { return c.d }

// Meter returns the RUM accounting.
func (c *CountMin) Meter() *rum.Meter { return c.meter }
