package rum

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAtomicMeterConcurrent hammers one AtomicMeter with Merges from many
// goroutines and checks the totals are exact — run under -race this also
// proves safety.
func TestAtomicMeterConcurrent(t *testing.T) {
	var m AtomicMeter
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var local Meter
				local.CountRead(Base, 64)
				local.CountRead(Aux, 16)
				local.CountWrite(Base, 32)
				local.CountLogicalRead(16)
				local.CountLogicalWrite(16)
				m.Merge(local)
			}
		}()
	}
	wg.Wait()
	got := m.Snapshot()
	const n = workers * perWorker
	want := Meter{
		BaseRead: 64 * n, AuxRead: 16 * n, BaseWritten: 32 * n,
		LogicalRead: 16 * n, LogicalWritten: 16 * n,
		ReadOps: n, WriteOps: n,
	}
	if got != want {
		t.Fatalf("concurrent totals: got %+v want %+v", got, want)
	}
	if ra := got.ReadAmplification(); ra != 5 {
		t.Fatalf("ReadAmplification = %v, want 5", ra)
	}
}

// TestAtomicMeterMerge drains per-goroutine plain Meters into a shared
// AtomicMeter — the documented sharding pattern.
func TestAtomicMeterMerge(t *testing.T) {
	var shared AtomicMeter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Meter
			for i := 0; i < 1000; i++ {
				local.CountWrite(Aux, 8)
				local.CountLogicalWrite(8)
			}
			shared.Merge(local)
		}()
	}
	wg.Wait()
	got := shared.Snapshot()
	if got.AuxWritten != 4*1000*8 || got.WriteOps != 4000 {
		t.Fatalf("merged totals wrong: %+v", got)
	}
}

// TestAtomicMeterEquivalence runs the same seeded mixed read/write workload
// twice — split across goroutines whose plain Meters are drained with Merge,
// and serially into one plain Meter — and requires identical totals. This
// is the invariant the serving layer's snapshot readers depend on: sharding
// the accounting must never change the numbers.
func TestAtomicMeterEquivalence(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	work := func(seed int64, m *Meter) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perWorker; i++ {
			n := 1 + rng.Intn(4096)
			c := Base
			if rng.Intn(3) == 0 {
				c = Aux
			}
			switch rng.Intn(4) {
			case 0:
				m.CountRead(c, n)
				m.CountLogicalRead(n)
			case 1:
				m.CountWrite(c, n)
				m.CountLogicalWrite(n)
			case 2:
				m.CountRead(c, n)
			default:
				m.CountWrite(c, n)
			}
		}
	}

	var sharded AtomicMeter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var local Meter
			work(seed, &local)
			sharded.Merge(local)
		}(int64(w))
	}
	wg.Wait()

	var serial Meter
	for w := 0; w < workers; w++ {
		work(int64(w), &serial)
	}

	if s := sharded.Snapshot(); s != serial {
		t.Fatalf("sharded Meters and one serial Meter disagree:\nsharded %+v\nserial  %+v", s, serial)
	}
	if serial == (Meter{}) {
		t.Fatal("workload counted nothing")
	}
}
