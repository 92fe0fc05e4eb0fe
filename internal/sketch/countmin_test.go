package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNeverUnderestimates(t *testing.T) {
	f := func(adds []uint8) bool {
		c := New(0.01, 0.01, nil)
		truth := map[uint64]uint64{}
		for _, a := range adds {
			k := uint64(a % 32)
			c.Add(k, 1)
			truth[k]++
		}
		for k, want := range truth {
			if c.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErrorBound(t *testing.T) {
	eps := 0.001
	c := New(eps, 0.01, nil)
	rng := rand.New(rand.NewSource(2))
	truth := map[uint64]uint64{}
	const total = 100000
	for i := 0; i < total; i++ {
		k := uint64(rng.Intn(5000))
		c.Add(k, 1)
		truth[k]++
	}
	// The CM guarantee: est <= true + eps*total with prob 1-delta. Check the
	// overwhelming majority comply (the bound is per-query probabilistic).
	bad := 0
	for k, want := range truth {
		if c.Estimate(k) > want+uint64(3*eps*total) {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Fatalf("%d/%d estimates blew the error bound", bad, len(truth))
	}
}

func TestUnseenKeysMostlyZero(t *testing.T) {
	c := New(0.001, 0.01, nil)
	for k := uint64(0); k < 1000; k++ {
		c.Add(k, 1)
	}
	zero := 0
	for k := uint64(1 << 30); k < 1<<30+1000; k++ {
		if c.Estimate(k) == 0 {
			zero++
		}
	}
	if zero < 900 {
		t.Fatalf("only %d/1000 unseen keys estimated zero", zero)
	}
}

func TestShapeFromParameters(t *testing.T) {
	c := New(0.01, 0.001, nil)
	if c.w < 250 {
		t.Fatalf("width %d too small for eps=0.01", c.w)
	}
	if c.Depth() < 6 {
		t.Fatalf("depth %d too small for delta=0.001", c.Depth())
	}
	// Defaults applied for nonsense parameters.
	d := New(-1, 2, nil)
	if d.w == 0 || d.Depth() == 0 {
		t.Fatal("defaults")
	}
}

func TestDeltaWeights(t *testing.T) {
	c := New(0.01, 0.01, nil)
	c.Add(7, 5)
	c.Add(7, 3)
	if got := c.Estimate(7); got < 8 {
		t.Fatalf("estimate %d < 8", got)
	}
}

func TestSublinearSpace(t *testing.T) {
	// The space-corner property: the sketch is much smaller than exact
	// storage of distinct keys.
	c := New(0.01, 0.01, nil)
	for k := uint64(0); k < 1<<20; k++ {
		c.Add(k, 1)
	}
	exact := uint64(1<<20) * 16
	if size := uint64(c.d) * c.w * counterSize; size > exact/10 {
		t.Fatalf("sketch %d bytes not sublinear vs %d", size, exact)
	}
}

func TestMeterCharges(t *testing.T) {
	c := New(0.01, 0.01, nil)
	c.Add(1, 1)
	if c.Meter().AuxWritten == 0 {
		t.Fatal("Add not charged")
	}
	c.Estimate(1)
	if c.Meter().AuxRead == 0 {
		t.Fatal("Estimate not charged")
	}
	if c.Name() == "" {
		t.Fatal("name")
	}
}
