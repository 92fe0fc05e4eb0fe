// Package bitmap implements compressed bitmap indexes, the space-optimized
// structure the paper cites via FastBit's word-aligned lossy/lossless
// encodings, plus the Section-5 roadmap item "update-friendly bitmap
// indexes, where updates are absorbed using additional, highly compressible,
// bitvectors which are gradually merged".
//
// A Compressed bitvector uses word-aligned run-length coding (WAH-style,
// with 63-bit groups): dense runs of identical bits collapse into fill
// words, making sparse or clustered bitmaps far smaller than N bits — but
// random single-bit updates require rebuilding the vector, which is exactly
// the update overhead the RUM Conjecture predicts for the space-optimized
// corner. The Index therefore absorbs updates in per-value delta sets and
// merges them into the compressed vectors past a threshold.
package bitmap

import "math/bits"

// Word-aligned encoding: each 64-bit word is either
//
//	MSB 0: literal — the low 63 bits are a bit group, LSB = lowest position;
//	MSB 1: fill — bit 62 is the fill value, low 62 bits count groups.
const (
	groupBits = 63
	fillFlag  = uint64(1) << 63
	fillValue = uint64(1) << 62
	countMask = fillValue - 1
)

// Compressed is an immutable run-length-compressed bitvector. Build one with
// FromPositions; mutate by rebuilding (see Index for the delta-absorbing
// update path).
type Compressed struct {
	words []uint64
	nbits uint64 // logical length in bits
	ones  uint64
}

// FromPositions builds a compressed vector of length nbits with ones at the
// given strictly-ascending positions.
func FromPositions(positions []uint64, nbits uint64) *Compressed {
	c := &Compressed{nbits: nbits, ones: uint64(len(positions))}
	group := uint64(0)
	var cur uint64 // literal accumulator for group `group`
	flushTo := func(g uint64) {
		// Emit accumulated literal for the current group, then zero-fill up
		// to group g.
		if g == group {
			return
		}
		c.appendLiteral(cur)
		cur = 0
		group++
		if g > group {
			c.appendFill(false, g-group)
			group = g
		}
	}
	for _, p := range positions {
		g := p / groupBits
		flushTo(g)
		cur |= 1 << (p % groupBits)
	}
	lastGroup := (nbits + groupBits - 1) / groupBits
	if lastGroup == 0 {
		lastGroup = 1
	}
	flushTo(lastGroup - 1)
	c.appendLiteral(cur)
	return c
}

func (c *Compressed) appendLiteral(w uint64) {
	w &= (1 << groupBits) - 1
	switch w {
	case 0:
		c.appendFill(false, 1)
		return
	case (1 << groupBits) - 1:
		c.appendFill(true, 1)
		return
	}
	c.words = append(c.words, w)
}

func (c *Compressed) appendFill(one bool, groups uint64) {
	if groups == 0 {
		return
	}
	// Coalesce with a preceding fill of the same polarity.
	if n := len(c.words); n > 0 {
		last := c.words[n-1]
		if last&fillFlag != 0 && (last&fillValue != 0) == one {
			c.words[n-1] = last + groups
			return
		}
	}
	w := fillFlag | groups
	if one {
		w |= fillValue
	}
	c.words = append(c.words, w)
}

// Len returns the logical length in bits.
func (c *Compressed) Len() uint64 { return c.nbits }

// SizeBytes returns the compressed footprint.
func (c *Compressed) SizeBytes() uint64 { return uint64(len(c.words)) * 8 }

// Words returns the number of encoded words (testing/inspection).
func (c *Compressed) Words() int { return len(c.words) }

// Test reports whether bit pos is set, and the number of words scanned to
// find it (the caller charges that as read cost).
func (c *Compressed) Test(pos uint64) (set bool, wordsScanned int) {
	target := pos / groupBits
	group := uint64(0)
	for i, w := range c.words {
		if w&fillFlag != 0 {
			n := w & countMask
			if target < group+n {
				return w&fillValue != 0, i + 1
			}
			group += n
			continue
		}
		if group == target {
			return w&(1<<(pos%groupBits)) != 0, i + 1
		}
		group++
	}
	return false, len(c.words)
}

// Iterate calls fn with each set position in ascending order, stopping early
// if fn returns false. It returns the number of words decoded.
func (c *Compressed) Iterate(fn func(pos uint64) bool) int {
	group := uint64(0)
	for i, w := range c.words {
		if w&fillFlag != 0 {
			n := w & countMask
			if w&fillValue != 0 {
				for g := group; g < group+n; g++ {
					for b := uint64(0); b < groupBits; b++ {
						p := g*groupBits + b
						if p >= c.nbits {
							return i + 1
						}
						if !fn(p) {
							return i + 1
						}
					}
				}
			}
			group += n
			continue
		}
		rem := w
		for rem != 0 {
			b := uint64(bits.TrailingZeros64(rem))
			p := group*groupBits + b
			if p >= c.nbits {
				return i + 1
			}
			if !fn(p) {
				return i + 1
			}
			rem &= rem - 1
		}
		group++
	}
	return len(c.words)
}

// Positions decodes every set position.
func (c *Compressed) Positions() []uint64 {
	out := make([]uint64, 0, c.ones)
	c.Iterate(func(p uint64) bool {
		out = append(out, p)
		return true
	})
	return out
}
