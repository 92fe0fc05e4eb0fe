package lsm

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// ingestBatch is one ascending batch of blind writes: a record whose value
// is Tombstone deletes, and fresh[i] says record i is an insert (it counts)
// rather than an overwrite.
type ingestBatch struct {
	recs  []core.Record
	fresh []bool
}

// randomBatch draws n distinct keys from a small space, so successive
// batches overwrite and delete each other's keys.
func randomBatch(rng *rand.Rand, n int, live map[core.Key]bool) ingestBatch {
	seen := make(map[core.Key]bool, n)
	var b ingestBatch
	for len(b.recs) < n {
		k := core.Key(rng.Intn(6000))
		if seen[k] {
			continue
		}
		seen[k] = true
		b.recs = append(b.recs, core.Record{Key: k})
	}
	slices.SortFunc(b.recs, func(x, y core.Record) int { return cmp.Compare(x.Key, y.Key) })
	b.fresh = make([]bool, n)
	for i := range b.recs {
		k := b.recs[i].Key
		if live[k] && rng.Intn(3) == 0 {
			b.recs[i].Value = Tombstone
			delete(live, k)
			continue
		}
		b.recs[i].Value = core.Value(rng.Uint64() >> 1)
		b.fresh[i] = !live[k]
		live[k] = true
	}
	return b
}

// putLoop applies the batch the way a caller without the sorted entry point
// does: one blind write per record, through the memtable.
func (b ingestBatch) putLoop(t *testing.T, tr *Tree) {
	t.Helper()
	for i, r := range b.recs {
		switch {
		case r.Value == Tombstone:
			tr.Delete(r.Key)
		case b.fresh[i]:
			if err := tr.Insert(r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		default:
			tr.Update(r.Key, r.Value)
		}
	}
}

// delta is the batch's net effect on the live count.
func (b ingestBatch) delta() int {
	d := 0
	for i, r := range b.recs {
		switch {
		case r.Value == Tombstone:
			d--
		case b.fresh[i]:
			d++
		}
	}
	return d
}

// sameTree fails unless the two trees — and the devices under them — are
// indistinguishable: run directory (pages, fences, bounds, counts), counters,
// every live page image (run pages and manifest chain), written traffic.
func sameTree(t *testing.T, when string, a, b *Tree) {
	t.Helper()
	if a.stats != b.stats || a.count != b.count || a.gen != b.gen {
		t.Fatalf("%s: stats/count/gen differ: put loop %+v %d gen %d, sorted ingest %+v %d gen %d",
			when, a.stats, a.count, a.gen, b.stats, b.count, b.gen)
	}
	if len(a.levels) != len(b.levels) {
		t.Fatalf("%s: depth %d vs %d", when, len(a.levels), len(b.levels))
	}
	for i := range a.levels {
		if len(a.levels[i]) != len(b.levels[i]) {
			t.Fatalf("%s: level %d holds %d vs %d runs", when, i, len(a.levels[i]), len(b.levels[i]))
		}
		for j, ra := range a.levels[i] {
			rb := b.levels[i][j]
			if !slices.Equal(ra.pages, rb.pages) || !slices.Equal(ra.fences, rb.fences) ||
				ra.first != rb.first || ra.last != rb.last || ra.count != rb.count ||
				(ra.filter == nil) != (rb.filter == nil) {
				t.Fatalf("%s: level %d run %d differs: %+v vs %+v", when, i, j, ra, rb)
			}
		}
	}
	if !slices.Equal(a.manifest, b.manifest) || !slices.Equal(a.pendingFree, b.pendingFree) {
		t.Fatalf("%s: manifest chain or quarantine differs", when)
	}
	da, db := a.pool.Device(), b.pool.Device()
	sa, sb := da.Stats(), db.Stats()
	if sa.PageWrites != sb.PageWrites || sa.PagesAllocated != sb.PagesAllocated || sa.PagesFreed != sb.PagesFreed {
		t.Fatalf("%s: written traffic differs: %+v vs %+v", when, sa, sb)
	}
	ids := da.LivePageIDs()
	if !slices.Equal(ids, db.LivePageIDs()) {
		t.Fatalf("%s: live page sets differ", when)
	}
	for _, id := range ids {
		pa, errA := da.Read(id)
		pb, errB := db.Read(id)
		if errA != nil || errB != nil || !bytes.Equal(pa, pb) {
			t.Fatalf("%s: page %d differs (%v, %v)", when, id, errA, errB)
		}
	}
}

// TestIngestSortedMatchesPutLoop is the differential test behind the WAL's
// sorted checkpoint: IngestSorted + Flush must leave exactly what the put
// loop + Flush leaves, batch after batch, under both merge policies, with
// tombstones, Bloom filters, and batch sizes on every side of the memtable
// threshold.
func TestIngestSortedMatchesPutLoop(t *testing.T) {
	const mem = 64
	sizes := []int{0, 1, mem - 1, mem, mem + 1, 2 * mem, 2*mem + 1, 3*mem + mem/2, 7 * mem, 5, 4 * mem}
	for _, cfg := range []Config{
		{MemtableRecords: mem, SizeRatio: 3, Manifest: true},
		{MemtableRecords: mem, SizeRatio: 3, Manifest: true, Tiering: true},
		{MemtableRecords: mem, SizeRatio: 4, BloomBitsPerKey: 8},
	} {
		t.Run(fmt.Sprintf("tier=%v,manifest=%v", cfg.Tiering, cfg.Manifest), func(t *testing.T) {
			newTree := func() *Tree {
				return New(storage.NewBufferPool(storage.NewDevice(512, storage.MQSSD, nil), 24), cfg)
			}
			loop, sorted := newTree(), newTree()
			rng := rand.New(rand.NewSource(16))
			live := make(map[core.Key]bool)
			for round := 0; round < 3; round++ {
				for _, n := range sizes {
					b := randomBatch(rng, n, live)
					b.putLoop(t, loop)
					loop.Flush()
					if err := sorted.IngestSorted(b.recs, b.delta()); err != nil {
						t.Fatal(err)
					}
					sorted.Flush()
					sameTree(t, fmt.Sprintf("round %d batch of %d", round, n), loop, sorted)
				}
			}
			if loop.Stats().Compactions == 0 || loop.Depth() < 3 {
				t.Fatalf("stream too small to mean anything: %+v depth %d", loop.Stats(), loop.Depth())
			}
			// What the skip-list no longer meters is the only traffic allowed
			// to differ, and only downwards.
			ml, ms := loop.Meter(), sorted.Meter()
			if ms.PhysicalWritten() >= ml.PhysicalWritten() || ms.PhysicalRead() > ml.PhysicalRead() {
				t.Fatalf("sorted ingest metered more than the put loop: %+v vs %+v", ms, ml)
			}
		})
	}
}

// TestIngestSortedRejectsBufferedWrites: a sorted batch may not be slipped
// in under writes still sitting in the memtable — they are newer than
// nothing in it — so the call fails and changes nothing.
func TestIngestSortedRejectsBufferedWrites(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 8})
	if err := tr.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := tr.IngestSorted([]core.Record{{Key: 1, Value: 1}}, 1); err == nil {
		t.Fatal("sorted ingest over a non-empty memtable succeeded")
	}
	if tr.Runs() != 0 || tr.Len() != 1 {
		t.Fatalf("rejected ingest left %d runs, Len %d", tr.Runs(), tr.Len())
	}
	tr.Flush()
	if err := tr.IngestSorted([]core.Record{{Key: 1, Value: 1}, {Key: 5, Value: Tombstone}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("ingested tombstone did not shadow the flushed record")
	}
	if v, ok := tr.Get(1); !ok || v != 1 || tr.Len() != 1 {
		t.Fatalf("Get(1) = %d,%v Len %d after ingest", v, ok, tr.Len())
	}
}
