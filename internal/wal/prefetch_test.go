package wal_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/wal"
)

// firedOn counts the faults the injector armed on dev has delivered, 0 if
// none is armed.
func firedOn(dev *storage.Device) uint64 {
	in, _ := dev.Injector().(*faults.Injector)
	if in == nil {
		return 0
	}
	st := in.Stats()
	return st.TransientReads + st.TransientWrites + st.PermanentReads + st.PermanentWrites + st.Crashes
}

// TestLoggedPrefetchAcrossCheckpoint runs one message stream through two
// logs on the multi-queue SSD: one hints every message's keys with Prefetch
// before applying it, its twin never does. With CheckpointEvery 8 most
// messages cross an automatic checkpoint part-way, after which the memo of
// the message's prefetch must not answer. Every operation's result and every
// message's Len must be the twin's, each pool's misses must equal its
// device's reads after every message, and the state both recover after a
// crash once everything is committed must be the same. The faults rows arm
// transient read faults (5 %) under a retry budget of 8 on both devices, so
// the prefetch's read waves stop at failed pages: a get may miss a present
// key only on a log whose injector fired during it. They end with one
// permanent write fault, on the log page of a last group commit: both logs
// must fail it, and neither may recover its record.
func TestLoggedPrefetchAcrossCheckpoint(t *testing.T) {
	for _, b := range builders() {
		for _, faulty := range []bool{false, true} {
			name := b.name
			if faulty {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) { prefetchAcrossCheckpoint(t, b, faulty) })
		}
	}
}

func prefetchAcrossCheckpoint(t *testing.T, b builder, faulty bool) {
	cfg := wal.Config{CommitBatch: 4, CheckpointEvery: 8}
	devs := make([]*storage.Device, 2)
	pools := make([]*storage.BufferPool, 2)
	logs := make([]*wal.Logged, 2)
	for i := range logs {
		devs[i] = storage.NewDevice(512, storage.MQSSD, nil)
		pools[i] = storage.NewBufferPool(devs[i], 12)
		l, err := b.open(pools[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
		if faulty {
			devs[i].SetInjector(faults.New(faults.Plan{Seed: 11, PRead: 0.05}))
			pools[i].SetRetryBudget(8)
		}
	}
	hinted, plain := logs[0], logs[1]
	openBatches := devs[0].Stats().Batches
	rng := rand.New(rand.NewSource(3))
	const keySpace = 400
	for msg := 0; msg < 300; msg++ {
		n := 1 + rng.Intn(24)
		ops, keys := make([]int, n), make([]core.Key, n)
		for i := range keys {
			ops[i], keys[i] = rng.Intn(4), core.Key(1+rng.Intn(keySpace))
			if i > 0 && rng.Intn(6) == 0 {
				keys[i] = keys[rng.Intn(i)] // touched twice in one message
			}
		}
		fired := [2]uint64{firedOn(devs[0]), firedOn(devs[1])}
		hinted.Prefetch(keys)
		for i, k := range keys {
			v := core.Value(msg*100 + i)
			var a, b any
			switch ops[i] {
			case 0:
				va, oka := hinted.Get(k)
				vb, okb := plain.Get(k)
				a, b = [2]any{va, oka}, [2]any{vb, okb}
				if oka != okb && (!oka && firedOn(devs[0]) > fired[0] || !okb && firedOn(devs[1]) > fired[1]) {
					a = b // a read the injector failed past its retries
				}
			case 1:
				a, b = hinted.Insert(k, v), plain.Insert(k, v)
			case 2:
				a, b = hinted.Update(k, v), plain.Update(k, v)
			default:
				a, b = hinted.Delete(k), plain.Delete(k)
			}
			if a != b {
				t.Fatalf("message %d, op %d (kind %d) on key %d: %v with the prefetch, %v without", msg, i, ops[i], k, a, b)
			}
			fired = [2]uint64{firedOn(devs[0]), firedOn(devs[1])}
		}
		if hinted.Len() != plain.Len() {
			t.Fatalf("message %d: Len %d with the prefetch, %d without", msg, hinted.Len(), plain.Len())
		}
		for i, l := range logs {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if ms, reads := pools[i].Stats().Misses, devs[i].Stats().PageReads; ms != reads {
				t.Fatalf("message %d: log %d's pool counts %d misses for %d device reads", msg, i, ms, reads)
			}
		}
	}
	if cp := hinted.Stats().Checkpoints; cp < 100 {
		t.Fatalf("%d checkpoints in 300 messages: the stream must cross them", cp)
	}
	if st := pools[0].Stats(); st.PrefetchHits == 0 {
		t.Fatalf("the prefetching log's pool counted no prefetch hits: %+v", st)
	}
	const lost = keySpace + 1
	if faulty {
		if batches := devs[0].Stats().Batches - openBatches; firedOn(devs[0]) == 0 || batches == 0 {
			t.Fatalf("the prefetching log's injector fired %d faults over %d batches: want both", firedOn(devs[0]), batches)
		}
		for i, l := range logs {
			// After a checkpoint no frame is dirty, so the commit's log page
			// is the device's next write.
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			devs[i].SetInjector(faults.New(faults.Plan{WriteFailAt: []uint64{1}}))
			if err := l.Insert(lost, 1); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("log %d: the commit over a failing log page returned %v", i, err)
			}
			devs[i].SetInjector(nil)
		}
	}
	states := make([]map[core.Key]core.Value, 2)
	lens := make([]int, 2)
	for i := range logs {
		pools[i].Crash()
		devs[i].Reopen()
		r, err := b.recover(pools[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		states[i], lens[i] = map[core.Key]core.Value{}, r.Len()
		r.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
			states[i][k] = v
			return true
		})
	}
	if lens[0] != lens[1] || len(states[0]) != len(states[1]) {
		t.Fatalf("recovered Len %d and %d records with the prefetch, %d and %d without", lens[0], len(states[0]), lens[1], len(states[1]))
	}
	for k, v := range states[1] {
		if got, ok := states[0][k]; !ok || got != v {
			t.Fatalf("recovered key %d: %d,%v with the prefetch, %d without", k, got, ok, v)
		}
	}
	if _, ok := states[0][lost]; ok {
		t.Fatal("the record of the failed commit was recovered")
	}
}
