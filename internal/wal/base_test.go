package wal

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// checkBase is the soundness property of the remembered probe: every overlay
// entry's base bit equals what the inner structure answers for the key right
// now. It holds whenever the structure has been left alone since the entry's
// first touch — that is, at any instant outside a checkpoint.
func checkBase(t *testing.T, l *Logged, when string) {
	t.Helper()
	for k, e := range l.overlay {
		if _, found := l.in.Get(k); found != e.base {
			t.Fatalf("%s: overlay entry %d (tomb=%v) has base=%v, inner structure says found=%v",
				when, k, e.tomb, e.base, found)
		}
	}
}

// TestBaseBitMatchesInner drives seeded streams with the automatic
// checkpoint off and checks the base bits immediately before every
// checkpoint the test triggers, over three kinds of interval end: a plain
// checkpoint; a crash with the tail committed, so the bits are rebuilt by
// replay; and a crash inside the checkpoint, after the inner barrier but
// before the checkpoint record — the LSM then recovers to a manifest newer
// than the log's anchor and replays records it has already absorbed.
func TestBaseBitMatchesInner(t *testing.T) {
	const poolPages = 48
	for _, s := range structures() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", s.name, seed), func(t *testing.T) {
				dev := storage.NewDevice(512, storage.MQSSD, nil)
				pool := storage.NewBufferPool(dev, poolPages)
				cfg := Config{CommitBatch: 8}
				l, err := s.open(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reopen := func(when string) {
					t.Helper()
					pool.Crash()
					pool = storage.NewBufferPool(dev, poolPages)
					if l, err = s.recover(pool, cfg); err != nil {
						t.Fatalf("%s: recover: %v", when, err)
					}
					checkBase(t, l, when)
					if l.Stats().OverlayRecords == 0 {
						t.Fatalf("%s: recovery replayed nothing", when)
					}
				}
				ops := newOpStream(seed)
				for round := 0; round < 15; round++ {
					for n := 150 + ops.rng.Intn(700); n > 0; n-- {
						ops.step(t, l)
					}
					checkBase(t, l, "before checkpoint")
					switch round % 3 {
					case 1:
						if err := l.Commit(); err != nil {
							t.Fatal(err)
						}
						reopen("after crash")
					case 2:
						// The first half of Checkpoint, then the crash.
						if err := l.Commit(); err != nil {
							t.Fatal(err)
						}
						if err := l.in.absorb(l.sortedOverlay(0, ^uint64(0))); err != nil {
							t.Fatal(err)
						}
						if _, err := l.in.barrier(); err != nil {
							t.Fatal(err)
						}
						reopen("after crash past the barrier")
					}
					ops.check(t, l)
					if err := l.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if n := l.Stats().OverlayRecords; n != 0 {
						t.Fatalf("checkpoint left %d overlay records", n)
					}
					ops.check(t, l)
				}
			})
		}
	}
}
