// Package plan is the LSM's compaction policy, stated once and free of side
// effects: from a tree's shape — per level, how many runs and how many
// records — it names the next merge. internal/lsm executes the steps against
// the device; internal/model folds the same steps over record counts to price
// a configuration. It imports nothing of the repository, so both can.
package plan

import "math"

// Policy is the tunable part of the schedule: the memtable size in records,
// the size ratio T between levels, and whether a level gathers T runs before
// merging them into the next (tiering) or is kept as one run and spilled into
// the next past Room records (leveling).
type Policy struct {
	Buffer, SizeRatio float64
	Tiering           bool
}

// Room is the record capacity of a level: Buffer · T^(level+1).
func (p Policy) Room(level int) float64 {
	return p.Buffer * math.Pow(p.SizeRatio, float64(level+1))
}

// LoadLevel is where a bulk load of n records lands: the first level with
// room for all of them.
func (p Policy) LoadLevel(n float64) (level int) {
	for p.Room(level) < n {
		level++
	}
	return level
}

// Shape is what the planner reads of a tree: Level for levels below Depth.
type Shape interface {
	Depth() int
	Level(i int) (runs int, records float64)
}

// Step is one merge: level From's runs and, if Absorb, every run resident in
// Into become one run installed at Into (at most one past the deepest level).
type Step struct {
	From, Into     int
	Absorb         bool
	DropTombstones bool
}

// Next returns the merge level needs, if any. A compaction pass asks it for
// each level in ascending order, applying a step before asking about the next.
func (p Policy) Next(level int, s Shape) (Step, bool) {
	runs, records := s.Level(level)
	st := Step{From: level, Into: level + 1}
	switch {
	case runs == 0:
		return Step{}, false
	case p.Tiering:
		if float64(runs) < p.SizeRatio {
			return Step{}, false
		}
	case records > p.Room(level):
		st.Absorb = true
	case runs > 1:
		st.Into = level // consolidate within the level
	default:
		return Step{}, false
	}
	// A tombstone may go iff no version it shadows can outlive the merge: no
	// run outside the step's inputs sits at Into or deeper. Into's own runs
	// are inputs when the step consolidates or absorbs; a tiered step lands
	// beside them.
	below := st.Into
	if st.Absorb || st.Into == st.From {
		below++
	}
	st.DropTombstones = true
	for ; below < s.Depth() && st.DropTombstones; below++ {
		resident, _ := s.Level(below)
		st.DropTombstones = resident == 0
	}
	return st, true
}

// Counts is a tree's shape as record counts alone: Counts[i] lists level i's
// runs, oldest first.
type Counts [][]float64

func (c Counts) Depth() int { return len(c) }

func (c Counts) Level(i int) (runs int, records float64) {
	for _, r := range c[i] {
		records += r
	}
	return len(c[i]), records
}

// Flush adds a run of the given size to level 0 of c and makes one compaction
// pass, the fold over Next that mirrors lsm.Tree's. merge is told how many
// records each step taken reads and says how many the merged run holds.
func (p Policy) Flush(c Counts, records float64, merge func(in float64) float64) Counts {
	if len(c) == 0 {
		c = append(c, nil)
	}
	c[0] = append(c[0], records)
	for i := 0; i < len(c); i++ {
		st, ok := p.Next(i, c)
		if !ok {
			continue
		}
		if st.Into == len(c) {
			c = append(c, nil)
		}
		_, in := c.Level(st.From)
		c[st.From] = nil
		if st.Absorb {
			_, resident := c.Level(st.Into)
			in, c[st.Into] = in+resident, nil
		}
		c[st.Into] = append(c[st.Into], merge(in))
	}
	return c
}
