package approx

import (
	"math"
	"math/rand"
	"testing"
)

func TestDistinctAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		d := NewDefaultDistinct()
		rng := rand.New(rand.NewSource(1))
		seen := map[uint64]bool{}
		for len(seen) < n {
			k := rng.Uint64()
			seen[k] = true
			d.Add(k)
			d.Add(k) // duplicates must not move the estimate
		}
		got := d.Estimate()
		if err := math.Abs(got-float64(n)) / float64(n); err > 0.08 {
			t.Fatalf("n=%d: estimate %.0f, relative error %.3f > 0.08", n, got, err)
		}
	}
}

func TestDistinctDeterministicSetFunction(t *testing.T) {
	keys := make([]uint64, 5000)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	fwd, bwd := NewDefaultDistinct(), NewDefaultDistinct()
	for _, k := range keys {
		fwd.Add(k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		bwd.Add(keys[i])
		bwd.Add(keys[i])
	}
	if fwd.Estimate() != bwd.Estimate() {
		t.Fatalf("add order moved the estimate: %v vs %v", fwd.Estimate(), bwd.Estimate())
	}
}

func TestDistinctMergeIsUnion(t *testing.T) {
	a, b, whole := NewDefaultDistinct(), NewDefaultDistinct(), NewDefaultDistinct()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 30000 // overlapping sets
		whole.Add(k)
		if i%2 == 0 {
			a.Add(k)
		} else {
			b.Add(k)
		}
	}
	merged := a.Clone()
	merged.Merge(b)
	if merged.Estimate() != whole.Estimate() {
		t.Fatalf("merge is not the union: merged %v, whole %v", merged.Estimate(), whole.Estimate())
	}
	// Merge must not mutate its argument, and Clone must be independent.
	aBefore := a.Estimate()
	b.Merge(a)
	if a.Estimate() != aBefore {
		t.Fatal("Merge mutated its argument")
	}
}

func TestDistinctClear(t *testing.T) {
	d := NewDefaultDistinct()
	for i := 0; i < 1000; i++ {
		d.Add(uint64(i))
	}
	d.Clear()
	if got := d.Estimate(); got != 0 {
		t.Fatalf("estimate %v after Clear, want 0", got)
	}
}

func TestDistinctPrecisionClamp(t *testing.T) {
	if got := len(NewDistinct(1).regs); got != 1<<4 {
		t.Fatalf("p=1 clamps to 16 registers, got %d", got)
	}
	if got := len(NewDistinct(99).regs); got != 1<<16 {
		t.Fatalf("p=99 clamps to 65536 registers, got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("precision-mismatched Merge did not panic")
		}
	}()
	NewDistinct(4).Merge(NewDistinct(8))
}

// TestDistinctRankMatchesBitLoop pins Add's leading-zero count to the
// bit-at-a-time loop it replaced: same registers at every precision, for
// scattered keys and for the small sequential ones the serving layer sees.
func TestDistinctRankMatchesBitLoop(t *testing.T) {
	loopAdd := func(regs []uint8, p uint8, h uint64) {
		idx := h >> (64 - p)
		rest := h<<p | 1<<(uint(p)-1)
		rank := uint8(1)
		for rest&(1<<63) == 0 {
			rank++
			rest <<= 1
		}
		if rank > regs[idx] {
			regs[idx] = rank
		}
	}
	rng := rand.New(rand.NewSource(4))
	for p := 4; p <= 16; p++ {
		d := NewDistinct(p)
		want := make([]uint8, 1<<p)
		for i := 0; i < 20000; i++ {
			k := rng.Uint64()
			if i%4 == 0 {
				k = uint64(i)
			}
			d.Add(k)
			loopAdd(want, uint8(p), distinctHash(k))
		}
		for i := range want {
			if d.regs[i] != want[i] {
				t.Fatalf("p=%d register %d: %d, bit loop gives %d", p, i, d.regs[i], want[i])
			}
		}
	}
}
