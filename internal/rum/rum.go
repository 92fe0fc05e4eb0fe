// Package rum implements the accounting model of the RUM Conjecture
// (Athanassoulis et al., EDBT 2016): every access method is measured by its
// Read Overhead (read amplification), Update Overhead (write amplification),
// and Memory Overhead (space amplification).
//
// All three ratios are defined exactly as in Section 2 of the paper:
//
//   - RO = total bytes read (auxiliary + base) / bytes of logically retrieved data
//   - UO = total bytes physically written / bytes of the logical update
//   - MO = (auxiliary + base) bytes stored / base bytes stored
//
// The theoretical minimum for each is 1.0.
//
// A Meter accumulates the physical and logical byte counts that these ratios
// are computed from. Structures built on the simulated storage layer
// (internal/storage) feed the meter automatically, page by page; purely
// in-memory structures meter the logical bytes they touch.
package rum

import (
	"fmt"
	"math"
)

// LineSize is the minimum transfer unit charged for a discrete random
// access by in-memory structures. The paper's Section 4 observes that "the
// fundamental assumption that data has a minimum access granularity holds
// for all storage mediums today, including main memory"; 64 bytes is the
// ubiquitous cache-line size. Contiguous scans stream and are charged their
// exact bytes.
const LineSize = 64

// LineCost rounds a discrete random access of n bytes up to whole cache
// lines.
func LineCost(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + LineSize - 1) / LineSize * LineSize
}

// Class distinguishes base data (the stored relation itself) from auxiliary
// data (indexes, filters, metadata) when accounting accesses, as the paper's
// overhead definitions require.
type Class int

const (
	// Base is the main data stored in the system ("base data" in the paper).
	Base Class = iota
	// Aux is auxiliary data kept to accelerate access ("auxiliary data").
	Aux
)

// String returns "base" or "aux".
func (c Class) String() string {
	if c == Base {
		return "base"
	}
	return "aux"
}

// Meter accumulates physical and logical byte counts for one access method
// (or one level of a memory hierarchy). The zero value is ready to use.
// Meter is not safe for concurrent use; wrap it externally if needed.
type Meter struct {
	// Physical bytes read, split by data class.
	BaseRead uint64
	AuxRead  uint64
	// Physical bytes written, split by data class.
	BaseWritten uint64
	AuxWritten  uint64
	// Logical payload: bytes the caller asked to retrieve (results actually
	// returned) and bytes the caller asked to change.
	LogicalRead    uint64
	LogicalWritten uint64
	// Operation counters, useful for per-op averages.
	ReadOps  uint64
	WriteOps uint64
}

// CountRead records n physical bytes read from data of class c.
func (m *Meter) CountRead(c Class, n int) {
	if c == Base {
		m.BaseRead += uint64(n)
	} else {
		m.AuxRead += uint64(n)
	}
}

// CountWrite records n physical bytes written to data of class c.
func (m *Meter) CountWrite(c Class, n int) {
	if c == Base {
		m.BaseWritten += uint64(n)
	} else {
		m.AuxWritten += uint64(n)
	}
}

// CountLogicalRead records n bytes of logically retrieved data (the payload
// the query returned) and one read operation.
func (m *Meter) CountLogicalRead(n int) { m.CountLogicalReads(1, n) }

// CountLogicalReads records ops read operations that each retrieved n logical
// bytes: what ops calls of CountLogicalRead(n) record, for a batched read that
// charges its whole group at once.
func (m *Meter) CountLogicalReads(ops, n int) {
	m.LogicalRead += uint64(ops * n)
	m.ReadOps += uint64(ops)
}

// CountLogicalWrite records n bytes of a logical update and one write
// operation.
func (m *Meter) CountLogicalWrite(n int) {
	m.LogicalWritten += uint64(n)
	m.WriteOps++
}

// Add accumulates the counts of o into m.
func (m *Meter) Add(o Meter) {
	m.BaseRead += o.BaseRead
	m.AuxRead += o.AuxRead
	m.BaseWritten += o.BaseWritten
	m.AuxWritten += o.AuxWritten
	m.LogicalRead += o.LogicalRead
	m.LogicalWritten += o.LogicalWritten
	m.ReadOps += o.ReadOps
	m.WriteOps += o.WriteOps
}

// Reset zeroes all counters.
func (m *Meter) Reset() { *m = Meter{} }

// Snapshot returns a copy of the current counters.
func (m *Meter) Snapshot() Meter { return *m }

// Diff returns the counts accumulated since the earlier snapshot prev.
func (m *Meter) Diff(prev Meter) Meter {
	return Meter{
		BaseRead:       m.BaseRead - prev.BaseRead,
		AuxRead:        m.AuxRead - prev.AuxRead,
		BaseWritten:    m.BaseWritten - prev.BaseWritten,
		AuxWritten:     m.AuxWritten - prev.AuxWritten,
		LogicalRead:    m.LogicalRead - prev.LogicalRead,
		LogicalWritten: m.LogicalWritten - prev.LogicalWritten,
		ReadOps:        m.ReadOps - prev.ReadOps,
		WriteOps:       m.WriteOps - prev.WriteOps,
	}
}

// PhysicalRead returns the total physical bytes read (base + auxiliary).
func (m Meter) PhysicalRead() uint64 { return m.BaseRead + m.AuxRead }

// PhysicalWritten returns the total physical bytes written (base + auxiliary).
func (m Meter) PhysicalWritten() uint64 { return m.BaseWritten + m.AuxWritten }

// ReadAmplification returns RO: physical bytes read per logically retrieved
// byte. If nothing was logically read it returns 0 when nothing was
// physically read either, and +Inf otherwise (reads that retrieved nothing).
func (m Meter) ReadAmplification() float64 {
	return amplification(m.PhysicalRead(), m.LogicalRead)
}

// WriteAmplification returns UO: physical bytes written per logically updated
// byte, with the same edge-case conventions as ReadAmplification.
func (m Meter) WriteAmplification() float64 {
	return amplification(m.PhysicalWritten(), m.LogicalWritten)
}

func amplification(physical, logical uint64) float64 {
	if logical == 0 {
		if physical == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(physical) / float64(logical)
}

// SizeInfo reports how much space an access method occupies, split by class.
type SizeInfo struct {
	BaseBytes uint64 // bytes holding the base data itself
	AuxBytes  uint64 // bytes holding auxiliary data (index nodes, filters, …)
}

// Total returns BaseBytes + AuxBytes.
func (s SizeInfo) Total() uint64 { return s.BaseBytes + s.AuxBytes }

// SpaceAmplification returns MO: total stored bytes divided by base bytes.
// An empty structure reports 1.0 (no overhead). A structure with auxiliary
// data but no base data reports +Inf, matching the paper's unbounded MO of
// the Prop-1 direct-address array.
func (s SizeInfo) SpaceAmplification() float64 {
	if s.BaseBytes == 0 {
		if s.AuxBytes == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(s.Total()) / float64(s.BaseBytes)
}

// Add returns the element-wise sum of two SizeInfos.
func (s SizeInfo) Add(o SizeInfo) SizeInfo {
	return SizeInfo{BaseBytes: s.BaseBytes + o.BaseBytes, AuxBytes: s.AuxBytes + o.AuxBytes}
}

// Point is a position in RUM space: the three measured amplification factors.
// Each coordinate is >= 1 for a structure that does real work (the paper's
// theoretical minimum is 1.0 in every dimension).
type Point struct {
	R float64 // read amplification (RO)
	U float64 // write amplification (UO)
	M float64 // space amplification (MO)
}

// PointOf combines an access meter with a size report into a RUM point.
func PointOf(m Meter, s SizeInfo) Point {
	return Point{R: m.ReadAmplification(), U: m.WriteAmplification(), M: s.SpaceAmplification()}
}

// String formats the point as "R=… U=… M=…".
func (p Point) String() string {
	return fmt.Sprintf("R=%s U=%s M=%s", fmtAmp(p.R), fmtAmp(p.U), fmtAmp(p.M))
}

func fmtAmp(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v >= 1000:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Dominates reports whether p is at least as good as q in every dimension and
// strictly better in at least one. The RUM Conjecture predicts that over the
// reachable configurations of any one tunable structure, no configuration
// dominates the whole frontier.
func (p Point) Dominates(q Point) bool {
	le := p.R <= q.R && p.U <= q.U && p.M <= q.M
	lt := p.R < q.R || p.U < q.U || p.M < q.M
	return le && lt
}

// cost converts an amplification factor into a non-negative "distance from
// optimal" on a log scale: amp 1.0 (optimal) costs 0, each doubling adds 1.
// Infinite amplification saturates at a large constant so projections stay
// renderable.
func cost(amp float64) float64 {
	const inf = 64 // 2^64 amplification: beyond anything measurable here
	if math.IsInf(amp, 1) || amp <= 0 {
		return inf
	}
	c := math.Log2(amp)
	if c < 0 {
		c = 0
	}
	if c > inf {
		c = inf
	}
	return c
}

// Barycentric projects the point onto the RUM triangle of Figures 1 and 3.
// The returned weights (read, write, space) are each in [0,1] and sum to 1; a
// larger weight means the structure is more optimized for (i.e. closer to)
// that corner. The projection is the normalized inverse log-cost in each
// dimension, so a structure with RO=1 and huge UO, MO sits at the Read corner.
func (p Point) Barycentric() Weights {
	// 1/(1+cost) maps optimal (cost 0) to 1 and saturated cost to ~0.
	or := 1 / (1 + cost(p.R))
	ou := 1 / (1 + cost(p.U))
	om := 1 / (1 + cost(p.M))
	sum := or + ou + om
	if sum == 0 {
		return Weights{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	return Weights{or / sum, ou / sum, om / sum}
}

// Corner identifies the RUM corner a point is closest to.
type Corner int

const (
	// ReadOptimized is the top corner of the triangle (low RO).
	ReadOptimized Corner = iota
	// WriteOptimized is the bottom-left corner (low UO).
	WriteOptimized
	// SpaceOptimized is the bottom-right corner (low MO).
	SpaceOptimized
	// Balanced marks points with no dominant corner (the adaptive middle).
	Balanced
)

// String names the corner as in Figure 1.
func (c Corner) String() string {
	switch c {
	case ReadOptimized:
		return "read-optimized"
	case WriteOptimized:
		return "write-optimized"
	case SpaceOptimized:
		return "space-optimized"
	default:
		return "balanced"
	}
}

// Classify reports which corner of the RUM triangle the point belongs to.
// A point is Balanced when no barycentric weight exceeds the others by more
// than the tolerance 0.10.
func (p Point) Classify() Corner { return p.Barycentric().Classify(0.10) }
