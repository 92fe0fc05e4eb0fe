package rum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeterCounts(t *testing.T) {
	var m Meter
	m.CountRead(Base, 100)
	m.CountRead(Aux, 50)
	m.CountWrite(Base, 30)
	m.CountWrite(Aux, 20)
	m.CountLogicalRead(10)
	m.CountLogicalWrite(5)

	if m.BaseRead != 100 || m.AuxRead != 50 {
		t.Fatalf("reads: %d/%d", m.BaseRead, m.AuxRead)
	}
	if m.PhysicalRead() != 150 || m.PhysicalWritten() != 50 {
		t.Fatalf("totals: %d/%d", m.PhysicalRead(), m.PhysicalWritten())
	}
	if m.ReadOps != 1 || m.WriteOps != 1 {
		t.Fatalf("ops: %d/%d", m.ReadOps, m.WriteOps)
	}
	if got := m.ReadAmplification(); got != 15 {
		t.Fatalf("RO = %v, want 15", got)
	}
	if got := m.WriteAmplification(); got != 10 {
		t.Fatalf("UO = %v, want 10", got)
	}
}

func TestCountLogicalReadsIsRepeatedCountLogicalRead(t *testing.T) {
	var batch, loop Meter
	for _, ops := range []int{0, 1, 16, 33} {
		batch.CountLogicalReads(ops, 16)
		for i := 0; i < ops; i++ {
			loop.CountLogicalRead(16)
		}
		if batch != loop {
			t.Fatalf("after %d ops: batch %+v, loop %+v", ops, batch, loop)
		}
	}
}

func TestAmplificationEdgeCases(t *testing.T) {
	var m Meter
	if got := m.ReadAmplification(); got != 0 {
		t.Fatalf("empty meter RO = %v", got)
	}
	m.CountRead(Base, 10)
	if got := m.ReadAmplification(); !math.IsInf(got, 1) {
		t.Fatalf("reads without retrieval: RO = %v, want +Inf", got)
	}
}

func TestDiffAndAdd(t *testing.T) {
	var m Meter
	m.CountRead(Base, 100)
	snap := m.Snapshot()
	m.CountRead(Base, 40)
	m.CountWrite(Aux, 7)
	d := m.Diff(snap)
	if d.BaseRead != 40 || d.AuxWritten != 7 {
		t.Fatalf("diff: %+v", d)
	}
	var sum Meter
	sum.Add(snap)
	sum.Add(d)
	if sum != m.Snapshot() {
		t.Fatalf("snapshot+diff != meter: %+v vs %+v", sum, m)
	}
}

// TestDiffAddRoundTrip: for any two count sequences, meter = prefix + diff.
func TestDiffAddRoundTrip(t *testing.T) {
	f := func(a, b [6]uint16) bool {
		var m Meter
		m.CountRead(Base, int(a[0]))
		m.CountRead(Aux, int(a[1]))
		m.CountWrite(Base, int(a[2]))
		m.CountWrite(Aux, int(a[3]))
		m.CountLogicalRead(int(a[4]))
		m.CountLogicalWrite(int(a[5]))
		snap := m.Snapshot()
		m.CountRead(Base, int(b[0]))
		m.CountRead(Aux, int(b[1]))
		m.CountWrite(Base, int(b[2]))
		m.CountWrite(Aux, int(b[3]))
		m.CountLogicalRead(int(b[4]))
		m.CountLogicalWrite(int(b[5]))
		var sum Meter
		sum.Add(snap)
		sum.Add(m.Diff(snap))
		return sum == m.Snapshot()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceAmplification(t *testing.T) {
	cases := []struct {
		s    SizeInfo
		want float64
	}{
		{SizeInfo{}, 1},
		{SizeInfo{BaseBytes: 100}, 1},
		{SizeInfo{BaseBytes: 100, AuxBytes: 50}, 1.5},
		{SizeInfo{AuxBytes: 50}, math.Inf(1)},
	}
	for _, c := range cases {
		if got := c.s.SpaceAmplification(); got != c.want {
			t.Fatalf("%+v: MO = %v, want %v", c.s, got, c.want)
		}
	}
	a := SizeInfo{BaseBytes: 1, AuxBytes: 2}
	b := SizeInfo{BaseBytes: 3, AuxBytes: 4}
	if got := a.Add(b); got.BaseBytes != 4 || got.AuxBytes != 6 {
		t.Fatalf("Add: %+v", got)
	}
}

func TestPointClassify(t *testing.T) {
	cases := []struct {
		p    Point
		want Corner
	}{
		{Point{R: 1, U: 100, M: 100}, ReadOptimized},
		{Point{R: 100, U: 1, M: 100}, WriteOptimized},
		{Point{R: 100, U: 100, M: 1}, SpaceOptimized},
		{Point{R: 4, U: 4, M: 4}, Balanced},
	}
	for _, c := range cases {
		if got := c.p.Classify(); got != c.want {
			t.Fatalf("%v: corner %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBarycentricSumsToOne(t *testing.T) {
	f := func(r, u, m uint16) bool {
		p := Point{R: 1 + float64(r), U: 1 + float64(u), M: 1 + float64(m)}
		w := p.Barycentric()
		sum := w[0] + w[1] + w[2]
		return math.Abs(sum-1) < 1e-9 && w[0] >= 0 && w[1] >= 0 && w[2] >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarycentricInfinity(t *testing.T) {
	p := Point{R: 1, U: math.Inf(1), M: math.Inf(1)}
	w := p.Barycentric()
	if w[0] <= w[1] || w[0] <= w[2] {
		t.Fatalf("read-perfect point not read-dominant: %v", w)
	}
	x, y := w.XY()
	if y < 0.9 {
		t.Fatalf("read-perfect point should be near the apex: x=%v y=%v", x, y)
	}
}

func TestDominates(t *testing.T) {
	a := Point{R: 1, U: 1, M: 1}
	b := Point{R: 2, U: 1, M: 1}
	if !a.Dominates(b) {
		t.Fatal("a should dominate b")
	}
	if b.Dominates(a) {
		t.Fatal("b should not dominate a")
	}
	if a.Dominates(a) {
		t.Fatal("a point must not dominate itself")
	}
}

func TestCornerStrings(t *testing.T) {
	for c, want := range map[Corner]string{
		ReadOptimized:  "read-optimized",
		WriteOptimized: "write-optimized",
		SpaceOptimized: "space-optimized",
		Balanced:       "balanced",
	} {
		if c.String() != want {
			t.Fatalf("%d: %q", c, c.String())
		}
	}
	if Base.String() != "base" || Aux.String() != "aux" {
		t.Fatal("class strings")
	}
}

func TestLineCost(t *testing.T) {
	cases := map[int]int{0: 0, -5: 0, 1: 64, 63: 64, 64: 64, 65: 128, 200: 256}
	for in, want := range cases {
		if got := LineCost(in); got != want {
			t.Fatalf("LineCost(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRelativeWeights(t *testing.T) {
	pts := []Point{
		{R: 1, U: 100, M: 10},  // best reader
		{R: 100, U: 1, M: 10},  // best writer
		{R: 100, U: 100, M: 1}, // best storer
		{R: 10, U: 10, M: 10},  // middle
	}
	ws := RelativeWeights(pts)
	if len(ws) != 4 {
		t.Fatalf("len %d", len(ws))
	}
	for i, w := range ws {
		sum := w[0] + w[1] + w[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights %d don't sum to 1: %v", i, w)
		}
	}
	if ws[0].Classify(0.05) != ReadOptimized {
		t.Fatalf("point 0: %v -> %v", ws[0], ws[0].Classify(0.05))
	}
	if ws[1].Classify(0.05) != WriteOptimized {
		t.Fatalf("point 1: %v", ws[1])
	}
	if ws[2].Classify(0.05) != SpaceOptimized {
		t.Fatalf("point 2: %v", ws[2])
	}
}

func TestRelativeWeightsDegenerate(t *testing.T) {
	if ws := RelativeWeights(nil); ws != nil {
		t.Fatal("nil input should return nil")
	}
	ws := RelativeWeights([]Point{{R: 5, U: 5, M: 5}})
	if math.Abs(ws[0][0]-1.0/3) > 1e-9 {
		t.Fatalf("single point should be centered: %v", ws[0])
	}
	// A constant cohort: every point centered.
	ws = RelativeWeights([]Point{{R: 2, U: 2, M: 2}, {R: 2, U: 2, M: 2}})
	for _, w := range ws {
		if w.Classify(0.05) != Balanced {
			t.Fatalf("constant cohort not balanced: %v", w)
		}
	}
}

func TestWeightsXY(t *testing.T) {
	read := Weights{1, 0, 0}
	if x, y := read.XY(); x != 0.5 || y != 1 {
		t.Fatalf("read corner at (%v,%v)", x, y)
	}
	write := Weights{0, 1, 0}
	if x, y := write.XY(); x != 0 || y != 0 {
		t.Fatalf("write corner at (%v,%v)", x, y)
	}
	space := Weights{0, 0, 1}
	if x, y := space.XY(); x != 1 || y != 0 {
		t.Fatalf("space corner at (%v,%v)", x, y)
	}
}

func TestPointString(t *testing.T) {
	p := Point{R: 2, U: math.Inf(1), M: 1234}
	s := p.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String: %q", s)
	}
}
