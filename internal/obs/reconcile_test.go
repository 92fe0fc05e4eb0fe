package obs_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/storage"
)

// failAt is a minimal scripted storage.FaultInjector for reconciliation
// tests: it fails exact 1-based read/write attempt indices.
type failAt struct {
	reads, writes uint64
	failRead      map[uint64]error
	failWrite     map[uint64]error
	tornAt        map[uint64]int
}

func (s *failAt) ReadFault(storage.PageID) error {
	s.reads++
	return s.failRead[s.reads]
}

func (s *failAt) WriteFault(storage.PageID, int) (int, error) {
	s.writes++
	return s.tornAt[s.writes], s.failWrite[s.writes]
}

// TestObserverReconcilesWithStorageLedgers is the accounting acceptance
// gate: everything the observer counts must reconcile exactly with the
// device and pool ledgers — page traffic, cost units, hit ratio, batch
// submissions — and fault-event costs must sit in their own ledger without
// contaminating the successful-traffic cost.
func TestObserverReconcilesWithStorageLedgers(t *testing.T) {
	o := obs.New(obs.Config{})
	dev := storage.NewDevice(64, storage.MQSSD, nil)
	pool := storage.NewBufferPool(dev, 8)
	dev.SetHook(o)

	// Clean phase: allocations, batched write-back, readahead, demand hits
	// and misses, evictions.
	var ids []storage.PageID
	for i := 0; i < 12; i++ {
		f, err := pool.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		ids = append(ids, f.ID())
		pool.Release(f)
	}
	pool.FlushAll()
	pool.Readahead(ids) // the first 8 were evicted during the 12-page fill
	for _, id := range ids {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(f)
	}

	dst, pst, tot := dev.Stats(), pool.Stats(), o.Totals()
	if tot.Cost != dst.CostUnits {
		t.Fatalf("observed cost %d != device cost units %d", tot.Cost, dst.CostUnits)
	}
	if tot.Reads() != dst.PageReads || tot.Writes() != dst.PageWrites {
		t.Fatalf("observed traffic r=%d w=%d != device r=%d w=%d",
			tot.Reads(), tot.Writes(), dst.PageReads, dst.PageWrites)
	}
	if tot.Hits != pst.Hits || tot.Misses != pst.Misses {
		t.Fatalf("observed hits/misses %d/%d != pool %d/%d", tot.Hits, tot.Misses, pst.Hits, pst.Misses)
	}
	// Every pool miss is a successful device read and vice versa (no
	// retries ran): the miss ledger and the read ledger are the same ledger.
	if tot.Misses != dst.PageReads {
		t.Fatalf("misses %d != device reads %d", tot.Misses, dst.PageReads)
	}
	if tot.Batches != dst.Batches || tot.BatchedPages != dst.BatchedPages {
		t.Fatalf("observed batches %d/%d != device %d/%d",
			tot.Batches, tot.BatchedPages, dst.Batches, dst.BatchedPages)
	}
	if tot.FaultCost != 0 || tot.Faults != 0 {
		t.Fatalf("clean phase recorded faults: %+v", tot)
	}

	// Faulted phase: one failed read, one torn write, one torn crash. Each
	// failure's event carries the attempted op's weighted cost (MQSSD: read
	// 4, write 20), ledgered as FaultCost — device CostUnits must not move.
	costBefore, faultsBase := dev.Stats().CostUnits, o.Totals()
	inj := &failAt{
		failRead:  map[uint64]error{1: fmt.Errorf("%w: scripted", storage.ErrInjected)},
		failWrite: map[uint64]error{1: fmt.Errorf("%w: scripted", storage.ErrInjected), 2: fmt.Errorf("%w: scripted", storage.ErrCrash)},
		tornAt:    map[uint64]int{2: 8},
	}
	dev.SetInjector(inj)
	if _, err := pool.Fetch(dev.Alloc(rum.Base)); err == nil {
		t.Fatal("expected read fault")
	}
	if err := dev.Write(ids[0], make([]byte, 64)); err == nil {
		t.Fatal("expected write fault")
	}
	if err := dev.Write(ids[1], make([]byte, 64)); err == nil {
		t.Fatal("expected torn crash")
	}

	dst, pst, tot = dev.Stats(), pool.Stats(), o.Totals()
	if dst.CostUnits != costBefore {
		t.Fatalf("failed ops moved device cost: %d -> %d", costBefore, dst.CostUnits)
	}
	if tot.Cost != dst.CostUnits {
		t.Fatalf("observed cost %d != device cost units %d after faults", tot.Cost, dst.CostUnits)
	}
	// One failed read (4) + one failed write (20) + one torn crash: the torn
	// event and the crash event both price the attempted write (20 each).
	if want := faultsBase.FaultCost + 4 + 20 + 20 + 20; tot.FaultCost != want {
		t.Fatalf("fault cost %d, want %d", tot.FaultCost, want)
	}
	// EvTorn counts in both the fault and torn ledgers, so three failed ops
	// show as three faults, one of them torn, one of them the crash point.
	if tot.Faults != 3 || tot.TornWrites != 1 || tot.Crashes != 1 {
		t.Fatalf("fault event counts: %+v", tot)
	}
	// The failed fetch counted neither hit nor miss; miss/read reconciliation
	// still holds against successful reads only.
	if pst.FetchFailures != 1 {
		t.Fatalf("fetch failures: %+v", pst)
	}
	if tot.Misses != pst.Misses || tot.Misses != dst.PageReads {
		t.Fatalf("post-fault miss ledger: obs %d pool %d device %d", tot.Misses, pst.Misses, dst.PageReads)
	}
}
