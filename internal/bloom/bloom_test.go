package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		flt := NewFilter(len(keys)+1, 10, nil)
		for _, k := range keys {
			flt.Add(k)
		}
		for _, k := range keys {
			if !flt.MayContainMetered(k, flt.meter) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	const n = 10000
	flt := NewFilter(n, 10, nil)
	for k := uint64(0); k < n; k++ {
		flt.Add(k)
	}
	fp := 0
	const probes = 20000
	for k := uint64(n); k < n+probes; k++ {
		if flt.MayContainMetered(k, flt.meter) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Theory for 10 bits/key, k=7: ~0.8%. Allow generous slack.
	if rate > 0.03 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestMoreBitsFewerFalsePositives(t *testing.T) {
	rate := func(bitsPerKey float64) float64 {
		const n = 5000
		flt := NewFilter(n, bitsPerKey, nil)
		for k := uint64(0); k < n; k++ {
			flt.Add(k)
		}
		fp := 0
		for k := uint64(n); k < n+10000; k++ {
			if flt.MayContainMetered(k, flt.meter) {
				fp++
			}
		}
		return float64(fp) / 10000
	}
	if small, big := rate(4), rate(12); big >= small {
		t.Fatalf("12 bits/key (%v) should beat 4 bits/key (%v)", big, small)
	}
}

func TestSizeScalesWithBits(t *testing.T) {
	a := NewFilter(1000, 4, nil)
	b := NewFilter(1000, 16, nil)
	if b.SizeBytes() <= a.SizeBytes() {
		t.Fatalf("sizes: %d vs %d", b.SizeBytes(), a.SizeBytes())
	}
	if a.k < 1 || b.k > 16 {
		t.Fatalf("probe counts: %d, %d", a.k, b.k)
	}
}

func TestClamps(t *testing.T) {
	f := NewFilter(0, 0, nil)
	f.Add(1)
	if !f.MayContainMetered(1, f.meter) {
		t.Fatal("degenerate filter lost a key")
	}
	if f.m < 64 {
		t.Fatal("minimum size not enforced")
	}
	g := NewFilter(10, 1000, nil)
	if g.k > 16 {
		t.Fatalf("k clamp: %d", g.k)
	}
}

func TestMeterCharges(t *testing.T) {
	f := NewFilter(100, 10, nil)
	f.Add(5)
	if f.Meter().AuxWritten == 0 {
		t.Fatal("Add not charged")
	}
	f.MayContainMetered(5, f.meter)
	if f.Meter().AuxRead == 0 {
		t.Fatal("MayContainMetered not charged")
	}
}

func TestProbeDistribution(t *testing.T) {
	// Double hashing with an odd step must not degenerate: adding many keys
	// should set a spread of bits, not a handful.
	f := NewFilter(1000, 10, nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		f.Add(rng.Uint64())
	}
	ones := 0
	for _, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			ones++
		}
	}
	if ones < 3000 {
		t.Fatalf("only %d bits set for 1000 keys x %d probes", ones, f.k)
	}
}
