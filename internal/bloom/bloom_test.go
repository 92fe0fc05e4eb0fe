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
			if !flt.MayContain(k) {
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
		if flt.MayContain(k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Theory for 10 bits/key, k=7: ~0.8%. Allow generous slack.
	if rate > 0.03 {
		t.Fatalf("false positive rate %v too high", rate)
	}
	if est := flt.FalsePositiveRate(); est <= 0 || est > 0.05 {
		t.Fatalf("estimated FP rate %v", est)
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
			if flt.MayContain(k) {
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
	if a.K() < 1 || b.K() > 16 {
		t.Fatalf("probe counts: %d, %d", a.K(), b.K())
	}
}

func TestClamps(t *testing.T) {
	f := NewFilter(0, 0, nil)
	f.Add(1)
	if !f.MayContain(1) {
		t.Fatal("degenerate filter lost a key")
	}
	if f.Bits() < 64 {
		t.Fatal("minimum size not enforced")
	}
	g := NewFilter(10, 1000, nil)
	if g.K() > 16 {
		t.Fatalf("k clamp: %d", g.K())
	}
}

func TestMeterCharges(t *testing.T) {
	f := NewFilter(100, 10, nil)
	f.Add(5)
	if f.Meter().AuxWritten == 0 {
		t.Fatal("Add not charged")
	}
	f.MayContain(5)
	if f.Meter().AuxRead == 0 {
		t.Fatal("MayContain not charged")
	}
	if f.Count() != 1 {
		t.Fatal("count")
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
		t.Fatalf("only %d bits set for 1000 keys x %d probes", ones, f.K())
	}
}
