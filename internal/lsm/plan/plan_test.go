package plan

import "testing"

var (
	level4 = Policy{Buffer: 32, SizeRatio: 4}
	tier4  = Policy{Buffer: 32, SizeRatio: 4, Tiering: true}
)

func TestNextThresholds(t *testing.T) {
	room1 := level4.Room(1) // 32·4² = 512
	if room1 != 512 {
		t.Fatalf("Room(1) = %v, want 512", room1)
	}
	for _, c := range []struct {
		name  string
		p     Policy
		shape Counts
		level int
		want  Step
		ok    bool
	}{
		{"leveled level exactly at Room consolidates", level4, Counts{nil, {500, 12}}, 1, Step{From: 1, Into: 1, DropTombstones: true}, true},
		{"one record over spills", level4, Counts{nil, {500, 13}}, 1, Step{From: 1, Into: 2, Absorb: true, DropTombstones: true}, true},
		{"a single run at Room stays", level4, Counts{nil, {512}}, 1, Step{}, false},
		{"a single run over Room spills", level4, Counts{nil, {513}, {40}}, 1, Step{From: 1, Into: 2, Absorb: true, DropTombstones: true}, true},
		{"an empty level has no step", level4, Counts{nil, {1}}, 0, Step{}, false},
		{"a tiered level with T-1 runs waits", tier4, Counts{{32, 32, 32}}, 0, Step{}, false},
		{"a tiered level with T runs merges, whatever their size", tier4, Counts{{1, 1, 1, 1}}, 0, Step{From: 0, Into: 1, DropTombstones: true}, true},
	} {
		got, ok := c.p.Next(c.level, c.shape)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: Next(%d, %v) = %+v, %v; want %+v, %v", c.name, c.level, c.shape, got, ok, c.want, c.ok)
		}
	}
}

// TestTombstoneRule: a step may drop tombstones iff no run outside its inputs
// sits at Into or deeper.
func TestTombstoneRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     Policy
		shape Counts
		level int
		drop  bool
	}{
		{"tiered merge into an empty bottom", tier4, Counts{{1, 1, 1, 1}, nil}, 0, true},
		{"tiered merge beside a resident run", tier4, Counts{{1, 1, 1, 1}, {4}}, 0, false},
		{"tiered merge above a deeper run", tier4, Counts{{1, 1, 1, 1}, nil, {4}}, 0, false},
		{"leveled consolidation at the bottom", level4, Counts{{10, 10}}, 0, true},
		{"leveled consolidation above a run", level4, Counts{{10, 10}, {100}}, 0, false},
		{"leveled spill absorbs the bottom run", level4, Counts{{100, 32}, {400}}, 0, true},
		{"leveled spill above a deeper run", level4, Counts{{100, 32}, {400}, {900}}, 0, false},
	} {
		st, ok := c.p.Next(c.level, c.shape)
		if !ok || st.DropTombstones != c.drop {
			t.Errorf("%s: Next(%d, %v) = %+v, %v; want DropTombstones %v", c.name, c.level, c.shape, st, ok, c.drop)
		}
	}
}

func TestLoadLevel(t *testing.T) {
	for _, c := range []struct {
		n    float64
		want int
	}{{0, 0}, {128, 0}, {129, 1}, {512, 1}, {513, 2}} {
		if got := level4.LoadLevel(c.n); got != c.want {
			t.Errorf("LoadLevel(%v) = %d, want %d", c.n, got, c.want)
		}
	}
}

// fuzzShape decodes a policy (byte 0: bit 0 tiering, bits 1-3 T-2; byte 1:
// Buffer-1) and a shape (a zero byte closes a level, any other is a run of
// that many records).
func fuzzShape(in []byte) (Policy, Counts) {
	p := Policy{Buffer: 1 + float64(in[1]), SizeRatio: 2 + float64(in[0]>>1&7), Tiering: in[0]&1 == 1}
	shape := Counts{nil}
	for _, b := range in[2:] {
		if b == 0 {
			shape = append(shape, nil)
		} else {
			shape[len(shape)-1] = append(shape[len(shape)-1], float64(b))
		}
	}
	return p, shape
}

func (c Counts) records() (sum float64) {
	for i := range c {
		_, r := c.Level(i)
		sum += r
	}
	return sum
}

// FuzzPlanStep holds every step the planner names, on arbitrary shapes, to
// the invariants the executor relies on, and one whole pass to leveling's.
func FuzzPlanStep(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 0, 4})              // the delete-resurrection shape: T=2 tiering, two runs above a resident one
	f.Add([]byte{4, 31, 32, 0, 250, 250, 13})    // T=4 leveling, L1 one record over Room
	f.Add([]byte{4, 31, 32, 0, 250, 250, 12, 0}) // exactly at Room, an empty level below
	f.Add([]byte{5, 31, 32, 32, 32, 0, 128, 128, 128, 128, 0, 0, 200})
	f.Add([]byte{16, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 || len(in) > 64 {
			return
		}
		p, shape := fuzzShape(in)
		for level := range shape {
			st, ok := p.Next(level, shape)
			if !ok {
				continue
			}
			if runs, _ := shape.Level(level); runs == 0 {
				t.Fatalf("%+v on %v: step %+v has no inputs", p, shape, st)
			}
			if st.From != level || st.Into < st.From || st.Into > st.From+1 {
				t.Fatalf("%+v on %v: level %d planned %+v", p, shape, level, st)
			}
			if p.Tiering && st.Absorb {
				t.Fatalf("%+v on %v: tiered step %+v absorbs", p, shape, st)
			}
			if !st.DropTombstones {
				continue
			}
			for j := st.Into; j < len(shape); j++ {
				input := j == st.From || j == st.Into && st.Absorb
				if !input && len(shape[j]) > 0 {
					t.Fatalf("%+v on %v: step %+v drops tombstones past level %d", p, shape, st, j)
				}
			}
		}
		before := shape.records()
		shape = p.Flush(shape, 1, func(in float64) float64 { return in })
		if after := shape.records(); after != before+1 {
			t.Fatalf("%+v: a pass turned %v records into %v", p, before+1, after)
		}
		for i := range shape {
			if !p.Tiering && len(shape[i]) > 1 {
				t.Fatalf("%+v: a leveled pass left %v", p, shape)
			}
		}
	})
}
