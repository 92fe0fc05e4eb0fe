package bloom

import (
	"math/rand"
	"testing"
)

func TestQuotientValidation(t *testing.T) {
	if _, err := NewQuotient(2, 0, nil); err == nil {
		t.Fatal("q=2 accepted")
	}
	if _, err := NewQuotient(8, 8, nil); err == nil {
		t.Fatal("p=q accepted")
	}
	if f, err := NewQuotient(8, 0, nil); err != nil || f.r != 8 {
		t.Fatalf("defaults: %v r=%d", err, f.r)
	}
}

func TestQuotientBasic(t *testing.T) {
	f, err := NewQuotient(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.MayContain(42) {
		t.Fatal("empty filter contains")
	}
	f.Add(42)
	if !f.MayContain(42) {
		t.Fatal("added key missing")
	}
	if f.n != 1 {
		t.Fatalf("count %d", f.n)
	}
	f.Add(42) // idempotent at fingerprint level
	if f.n != 1 {
		t.Fatalf("duplicate add changed count: %d", f.n)
	}
	if !f.Remove(42) {
		t.Fatal("remove failed")
	}
	if f.MayContain(42) {
		t.Fatal("removed key still present")
	}
	if f.Remove(42) {
		t.Fatal("double remove")
	}
}

// TestQuotientNoFalseNegatives: every added (and not removed) key answers
// true.
func TestQuotientNoFalseNegatives(t *testing.T) {
	f, err := NewQuotient(10, 26, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

// TestQuotientDifferential: with a fixed table (no growth) the filter must
// agree EXACTLY with a model set of fingerprints — the quotient filter is
// lossless at the fingerprint level.
func TestQuotientDifferential(t *testing.T) {
	f, err := NewQuotient(7, 15, nil) // 128 slots: heavy collisions
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	model := map[uint64]bool{} // fingerprints present
	keyOf := map[uint64][]uint64{}
	var keys []uint64
	for i := 0; i < 6000; i++ {
		var k uint64
		if len(keys) > 0 && rng.Intn(2) == 0 {
			k = keys[rng.Intn(len(keys))]
		} else {
			k = rng.Uint64()
			keys = append(keys, k)
		}
		fp := f.fingerprint(k)
		switch rng.Intn(3) {
		case 0: // add
			if f.LoadFactor() > 0.8 {
				continue // avoid growth in the differential test
			}
			f.Add(k)
			model[fp] = true
			keyOf[fp] = append(keyOf[fp], k)
		case 1: // contains
			if got, want := f.MayContain(k), model[fp]; got != want {
				t.Fatalf("op %d: MayContain fingerprint %x = %v want %v (n=%d)", i, fp, got, want, f.n)
			}
		case 2: // remove
			got := f.Remove(k)
			if got != model[fp] {
				t.Fatalf("op %d: Remove fingerprint %x = %v want %v", i, fp, got, model[fp])
			}
			delete(model, fp)
		}
		if f.n != len(model) {
			t.Fatalf("op %d: count %d want %d", i, f.n, len(model))
		}
	}
	// Final exhaustive agreement.
	for _, k := range keys {
		fp := f.fingerprint(k)
		if f.MayContain(k) != model[fp] {
			t.Fatalf("final: fingerprint %x", fp)
		}
	}
}

func TestQuotientGrowth(t *testing.T) {
	f, err := NewQuotient(4, 20, nil) // 16 slots: grows fast
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	if f.q == 4 {
		t.Fatal("filter never grew")
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("key lost in growth")
		}
	}
	// Load stays workable after growth.
	if f.LoadFactor() > 0.95 {
		t.Fatalf("load %v after growth", f.LoadFactor())
	}
}

func TestQuotientFalsePositiveRate(t *testing.T) {
	f, err := NewQuotient(12, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k++ {
		f.Add(k)
	}
	fp := 0
	const probes = 20000
	for k := uint64(1 << 40); k < 1<<40+probes; k++ {
		if f.MayContain(k) {
			fp++
		}
	}
	// 20-bit remainders at load ~0.73: collisions should be rare.
	if rate := float64(fp) / probes; rate > 0.01 {
		t.Fatalf("FP rate %v", rate)
	}
}

func TestQuotientMeterCharges(t *testing.T) {
	f, err := NewQuotient(8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(1)
	if f.Meter().AuxWritten == 0 {
		t.Fatal("Add not charged")
	}
	f.MayContain(1)
	if f.Meter().AuxRead == 0 {
		t.Fatal("MayContain not charged")
	}
	if f.SizeBytes() != 256*uint64(f.slotBytes()) {
		t.Fatalf("size %d", f.SizeBytes())
	}
}

func TestQuotientRemoveUnderChurn(t *testing.T) {
	f, err := NewQuotient(8, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(300))
		if live[k] {
			if !f.Remove(k) {
				t.Fatalf("op %d: remove of live key %d failed", i, k)
			}
			delete(live, k)
		} else {
			if f.LoadFactor() > 0.8 {
				continue
			}
			f.Add(k)
			live[k] = true
		}
		for kk := range live {
			if !f.MayContain(kk) {
				t.Fatalf("op %d: churn caused false negative on %d", i, kk)
			}
			break // spot check one per op
		}
	}
}
