package wal_test

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newStack(t *testing.T, pages int) (*storage.Device, *storage.BufferPool) {
	t.Helper()
	dev := storage.NewDevice(512, storage.SSD, nil)
	return dev, storage.NewBufferPool(dev, pages)
}

// builders for the two logged structures, so shared tests run over both.
type builder struct {
	name    string
	open    func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error)
	recover func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error)
}

func builders() []builder {
	return []builder{
		{
			name: "btree",
			open: func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error) {
				return wal.NewBTree(pool, btree.Config{}, cfg)
			},
			recover: func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error) {
				return wal.RecoverBTree(pool, btree.Config{}, cfg)
			},
		},
		{
			name: "lsm",
			open: func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error) {
				return wal.NewLSM(pool, lsm.Config{MemtableRecords: 16}, cfg)
			},
			recover: func(pool *storage.BufferPool, cfg wal.Config) (*wal.Logged, error) {
				return wal.RecoverLSM(pool, lsm.Config{MemtableRecords: 16}, cfg)
			},
		},
	}
}

// TestLoggedBasic drives the full mutation surface through the overlay and
// checks reads, scans, and Len against a model, across checkpoints.
func TestLoggedBasic(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			_, pool := newStack(t, 16)
			l, err := b.open(pool, wal.Config{CommitBatch: 4})
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[core.Key]core.Value)
			for k := core.Key(1); k <= 100; k++ {
				if err := l.Insert(k, k*10); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
				model[k] = k * 10
			}
			if err := l.Insert(7, 1); err != core.ErrKeyExists {
				t.Fatalf("duplicate insert: got %v, want ErrKeyExists", err)
			}
			if !l.Update(7, 77) {
				t.Fatal("update of existing key failed")
			}
			model[7] = 77
			if l.Update(1000, 1) {
				t.Fatal("update of missing key succeeded")
			}
			if !l.Delete(13) {
				t.Fatal("delete of existing key failed")
			}
			delete(model, 13)
			if l.Delete(13) {
				t.Fatal("double delete succeeded")
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			// Mutate again after the checkpoint so reads mix overlay/inner.
			if !l.Update(2, 22) {
				t.Fatal("post-checkpoint update failed")
			}
			model[2] = 22
			if !l.Delete(3) {
				t.Fatal("post-checkpoint delete failed")
			}
			delete(model, 3)
			if err := l.Insert(13, 130); err != nil {
				t.Fatalf("re-insert of deleted key: %v", err)
			}
			model[13] = 130

			if l.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", l.Len(), len(model))
			}
			for k, want := range model {
				if got, ok := l.Get(k); !ok || got != want {
					t.Fatalf("Get(%d) = %d,%v, want %d", k, got, ok, want)
				}
			}
			if _, ok := l.Get(3); ok {
				t.Fatal("deleted key served")
			}
			got := make(map[core.Key]core.Value)
			var prev core.Key
			n := l.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
				if len(got) > 0 && k <= prev {
					t.Fatalf("scan out of order: %d after %d", k, prev)
				}
				prev = k
				got[k] = v
				return true
			})
			if n != len(model) || len(got) != len(model) {
				t.Fatalf("scan emitted %d (%d distinct), want %d", n, len(got), len(model))
			}
			for k, want := range model {
				if got[k] != want {
					t.Fatalf("scan value for %d = %d, want %d", k, got[k], want)
				}
			}
		})
	}
}

// TestLoggedRecovery crashes after committed-but-uncheckpointed mutations
// and requires recovery to serve exactly the model: the checkpointed state
// plus the committed tail replayed from the log.
func TestLoggedRecovery(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			dev, pool := newStack(t, 16)
			l, err := b.open(pool, wal.Config{CommitBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[core.Key]core.Value)
			for k := core.Key(1); k <= 60; k++ {
				if err := l.Insert(k, k+1000); err != nil {
					t.Fatal(err)
				}
				model[k] = k + 1000
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Committed tail after the checkpoint: inserts, updates, deletes.
			for k := core.Key(61); k <= 80; k++ {
				if err := l.Insert(k, k+2000); err != nil {
					t.Fatal(err)
				}
				model[k] = k + 2000
			}
			l.Update(5, 55)
			model[5] = 55
			l.Delete(6)
			delete(model, 6)

			// Crash: volatile state gone, device image as-is.
			pool.Crash()
			pool2 := storage.NewBufferPool(dev, 16)
			l2, err := b.recover(pool2, wal.Config{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if l2.Len() != len(model) {
				t.Fatalf("recovered Len = %d, want %d", l2.Len(), len(model))
			}
			for k, want := range model {
				if got, ok := l2.Get(k); !ok || got != want {
					t.Fatalf("recovered Get(%d) = %d,%v, want %d", k, got, ok, want)
				}
			}
			if _, ok := l2.Get(6); ok {
				t.Fatal("deleted key survived recovery")
			}
			l2.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
				if want, ok := model[k]; !ok || want != v {
					t.Fatalf("recovered scan served %d=%d, model says %d,%v", k, v, model[k], ok)
				}
				return true
			})
			// The recovered log must keep working: mutate, checkpoint, read.
			if err := l2.Insert(999, 9990); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
			if err := l2.Checkpoint(); err != nil {
				t.Fatalf("post-recovery checkpoint: %v", err)
			}
			if got, ok := l2.Get(999); !ok || got != 9990 {
				t.Fatal("post-recovery record lost")
			}
		})
	}
}

// TestSegmentRecycling checks the segment lifecycle: checkpoints recycle all
// earlier log pages, so the live log footprint stays bounded by the traffic
// since the last checkpoint instead of growing with history.
func TestSegmentRecycling(t *testing.T) {
	_, pool := newStack(t, 16)
	l, err := wal.NewBTree(pool, btree.Config{}, wal.Config{CommitBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := core.Key(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			k++
			if err := l.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if live := l.Stats().LiveLogPages; live != 1 {
			t.Fatalf("round %d: %d live log pages after checkpoint, want 1 (the checkpoint record)", round, live)
		}
	}
	st := l.Stats()
	if st.PagesRecycled == 0 {
		t.Fatal("no log pages recycled across 5 checkpoints")
	}
	if st.LogPagesWritten < 250 {
		t.Fatalf("LogPagesWritten = %d, want >= 250 with per-op commits", st.LogPagesWritten)
	}
}

// TestGroupCommitAmortization checks the knob does what the experiment
// claims: the sync count shrinks with the batch size.
func TestGroupCommitAmortization(t *testing.T) {
	syncs := func(batch int) uint64 {
		_, pool := newStack(t, 16)
		l, err := wal.NewBTree(pool, btree.Config{}, wal.Config{CommitBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		for k := core.Key(1); k <= 256; k++ {
			if err := l.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		return l.Stats().Syncs
	}
	s1, s32 := syncs(1), syncs(32)
	if s1 < 256 {
		t.Fatalf("batch=1 syncs = %d, want >= 256", s1)
	}
	if s32 > s1/8 {
		t.Fatalf("batch=32 syncs = %d, batch=1 = %d: group commit is not amortizing", s32, s1)
	}
}

// TestTornTailTruncated is the recovery property test for torn final
// appends: with the torn-write injector armed, the last group commit's page
// is persisted only as a prefix. Recovery must detect the tear by CRC and
// truncate the log cleanly — the torn batch is recovered all-or-nothing
// (the tear can land past the used region, leaving the page whole), and the
// committed prefix survives exactly. No partial replay, ever.
func TestTornTailTruncated(t *testing.T) {
	for _, b := range builders() {
		for seed := uint64(1); seed <= 24; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", b.name, seed), func(t *testing.T) {
				dev, pool := newStack(t, 16)
				l, err := b.open(pool, wal.Config{CommitBatch: 8})
				if err != nil {
					t.Fatal(err)
				}
				for k := core.Key(1); k <= 40; k++ {
					if err := l.Insert(k, k*3); err != nil {
						t.Fatal(err)
					}
				}
				if got := l.Committed(); got != 40 {
					t.Fatalf("committed = %d, want 40 before the tear", got)
				}
				// Every write from here on is torn.
				dev.SetInjector(faults.New(faults.Plan{Seed: seed, PWrite: 1, PTorn: 1}))
				tornBatch := make([]core.Key, 0, 8)
				for k := core.Key(101); k <= 108; k++ {
					if err := l.Insert(k, k*3); err != nil {
						t.Fatal(err) // append is in-memory; the tear hits the commit
					}
					tornBatch = append(tornBatch, k)
				}
				if err := l.Insert(500, 1); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("insert after the torn commit: %v, want the latched injected fault", err)
				}

				pool.Crash()
				dev.SetInjector(nil)
				pool2 := storage.NewBufferPool(dev, 16)
				l2, err := b.recover(pool2, wal.Config{})
				if err != nil {
					t.Fatalf("recover after torn tail: %v", err)
				}
				// Committed prefix: intact, exact values.
				for k := core.Key(1); k <= 40; k++ {
					if got, ok := l2.Get(k); !ok || got != k*3 {
						t.Fatalf("committed key %d = %d,%v after recovery, want %d", k, got, ok, k*3)
					}
				}
				// Torn batch: all-or-nothing, never a partial prefix replay.
				present := 0
				for _, k := range tornBatch {
					if got, ok := l2.Get(k); ok {
						if got != k*3 {
							t.Fatalf("torn-batch key %d recovered with garbage value %d", k, got)
						}
						present++
					}
				}
				if present != 0 && present != len(tornBatch) {
					t.Fatalf("torn batch partially replayed: %d of %d records", present, len(tornBatch))
				}
				// No garbage keys anywhere.
				l2.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
					if k >= 1 && k <= 40 || k >= 101 && k <= 108 {
						return true
					}
					t.Fatalf("recovery served garbage key %d", k)
					return false
				})
			})
		}
	}
}

// TestAppendFaultMidGroup lands a fault on the second of a group commit's
// three log pages, on the flat SSD and on the multi-queue SSD: a permanent
// write fault, and a crash point. Either medium takes the group as one
// submission, so the log allocates all three pages, the device writes the
// first and nothing past the fault, and the commit fails. Recovery brings
// back every record committed before the group and at most a prefix of the
// group, and sweeps the pages the log allocated at and past the failure:
// none of them is still live.
func TestAppendFaultMidGroup(t *testing.T) {
	for _, b := range builders() {
		for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
			for _, fault := range []struct {
				name string
				plan faults.Plan
				err  error
			}{
				{"permanent", faults.Plan{WriteFailAt: []uint64{2}}, storage.ErrInjected},
				{"crash", faults.Plan{CrashAtWrite: 2}, storage.ErrCrash},
			} {
				t.Run(fmt.Sprintf("%s/%v/%s", b.name, medium, fault.name), func(t *testing.T) {
					dev := storage.NewDevice(512, medium, nil)
					pool := storage.NewBufferPool(dev, 16)
					l, err := b.open(pool, wal.Config{CommitBatch: 1000})
					if err != nil {
						t.Fatal(err)
					}
					put := func(from, to core.Key) {
						for k := from; k <= to; k++ {
							if err := l.Insert(k, k*3); err != nil {
								t.Fatal(err)
							}
						}
					}
					put(1, 40)
					if err := l.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					put(41, 50) // a committed tail past the checkpoint
					if err := l.Commit(); err != nil {
						t.Fatal(err)
					}
					// Log pages go to the device directly and no frame is
					// dirty, so the group's pages are the device's next writes.
					before := map[storage.PageID]bool{}
					for _, id := range dev.LivePageIDs() {
						before[id] = true
					}
					dev.SetInjector(faults.New(fault.plan))
					put(101, 160) // 60 records: three 512-byte log pages
					if err := l.Commit(); !errors.Is(err, fault.err) {
						t.Fatalf("commit over the failing page: %v, want %v", err, fault.err)
					}
					pool.Crash()
					dev.Reopen()
					dev.SetInjector(nil)
					var group, written []storage.PageID
					for _, id := range dev.LivePageIDs() {
						if before[id] {
							continue
						}
						group = append(group, id)
						if data, err := dev.Read(id); err != nil {
							t.Fatal(err)
						} else if slices.ContainsFunc(data, func(c byte) bool { return c != 0 }) {
							written = append(written, id)
						}
					}
					if len(group) != 3 || len(written) != 1 {
						t.Fatalf("the group allocated pages %v and wrote %v: want 3 allocated, 1 written", group, written)
					}

					l2, err := b.recover(storage.NewBufferPool(dev, 16), wal.Config{})
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					for k := core.Key(1); k <= 50; k++ {
						if got, ok := l2.Get(k); !ok || got != k*3 {
							t.Fatalf("committed key %d = %d,%v after recovery, want %d", k, got, ok, k*3)
						}
					}
					prefix := 0
					for k := core.Key(101); k <= 160; k++ {
						if _, ok := l2.Get(k); !ok {
							break
						}
						prefix++
					}
					if l2.Len() != 50+prefix || prefix == 60 {
						t.Fatalf("recovered Len %d: the group's first %d records and the 50 committed", l2.Len(), prefix)
					}
					live := dev.LivePageIDs()
					for _, id := range group {
						if id != written[0] && slices.Contains(live, id) {
							t.Fatalf("page %d, allocated at or past the failure, is live after recovery", id)
						}
					}
				})
			}
		}
	}
}

// TestRecoveryKeepsLogPrefix loses one page of a committed three-page group
// commit in turn — the first, the second, the third in sequence order — on
// both logs and both media. A lost page ends the log: recovery brings back
// the 50 records committed before the group and exactly the group's records
// on the pages before the lost one, never a record past it. The recovered
// log then commits once more and recovers again, so the sequence numbers it
// resumed from leave no gap of their own.
func TestRecoveryKeepsLogPrefix(t *testing.T) {
	for _, b := range builders() {
		for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
			for lost := 0; lost < 3; lost++ {
				t.Run(fmt.Sprintf("%s/%v/page=%d", b.name, medium, lost+1), func(t *testing.T) {
					dev := storage.NewDevice(512, medium, nil)
					pool := storage.NewBufferPool(dev, 16)
					l, err := b.open(pool, wal.Config{CommitBatch: 1000})
					if err != nil {
						t.Fatal(err)
					}
					put := func(l *wal.Logged, from, to core.Key) {
						for k := from; k <= to; k++ {
							if err := l.Insert(k, k*3); err != nil {
								t.Fatal(err)
							}
						}
						if err := l.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					put(l, 1, 40)
					if err := l.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					put(l, 41, 50)
					before := map[storage.PageID]bool{}
					for _, id := range dev.LivePageIDs() {
						before[id] = true
					}
					put(l, 101, 160) // 60 records: log pages of 28, 28 and 4
					var group []storage.PageID
					seq := map[storage.PageID]uint64{}
					for _, id := range dev.LivePageIDs() {
						if !before[id] {
							data, err := dev.Read(id)
							if err != nil {
								t.Fatal(err)
							}
							group, seq[id] = append(group, id), binary.LittleEndian.Uint64(data[8:16])
						}
					}
					if len(group) != 3 {
						t.Fatalf("the group wrote %d log pages, want 3", len(group))
					}
					slices.SortFunc(group, func(a, b storage.PageID) int { return cmp.Compare(seq[a], seq[b]) })
					if err := dev.Write(group[lost], make([]byte, 512)); err != nil {
						t.Fatal(err)
					}
					pool.Crash()

					reopen := func() (*wal.Logged, *storage.BufferPool) {
						pool := storage.NewBufferPool(dev, 16)
						l2, err := b.recover(pool, wal.Config{})
						if err != nil {
							t.Fatalf("recover: %v", err)
						}
						for k := core.Key(1); k <= 50; k++ {
							if got, ok := l2.Get(k); !ok || got != k*3 {
								t.Fatalf("committed key %d = %d,%v after recovery, want %d", k, got, ok, k*3)
							}
						}
						return l2, pool
					}
					l2, pool2 := reopen()
					prefix := 0
					for k := core.Key(101); k <= 160; k++ {
						if _, ok := l2.Get(k); !ok {
							break
						}
						prefix++
					}
					if want := 28 * lost; prefix != want || l2.Len() != 50+prefix {
						t.Fatalf("recovered Len %d with the group's first %d records, want the 50 committed and the first %d", l2.Len(), prefix, want)
					}

					put(l2, 200, 200)
					pool2.Crash()
					l3, _ := reopen()
					if got, ok := l3.Get(200); !ok || got != 600 || l3.Len() != 51+prefix {
						t.Fatalf("second recovery: Get(200) = %d,%v, Len %d: want 600 and %d", got, ok, l3.Len(), 51+prefix)
					}
				})
			}
		}
	}
}

// TestCheckpointBoundsFootprint checks that a checkpoint actually returns
// log pages to the device: per-op commits inflate the live page set, the
// checkpoint collapses it back to the structure plus one checkpoint record.
func TestCheckpointBoundsFootprint(t *testing.T) {
	dev, pool := newStack(t, 16)
	l, err := wal.NewBTree(pool, btree.Config{}, wal.Config{CommitBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := core.Key(1); k <= 40; k++ {
		if err := l.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	liveBefore := len(dev.LivePageIDs())
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if live := len(dev.LivePageIDs()); live >= liveBefore {
		t.Fatalf("checkpoint left %d live pages, had %d before: log pages were not recycled", live, liveBefore)
	}
}
