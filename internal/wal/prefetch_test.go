package wal_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestLoggedPrefetchAcrossCheckpoint runs one message stream through two
// logs on the multi-queue SSD: one hints every message's keys with Prefetch
// before applying it, its twin never does. With CheckpointEvery 8 most
// messages cross an automatic checkpoint part-way, after which the memo of
// the message's prefetch must not answer. Every operation's result and every
// message's Len must be the twin's, and so must the state both recover after
// a crash once everything is committed.
func TestLoggedPrefetchAcrossCheckpoint(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
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
			}
			hinted, plain := logs[0], logs[1]
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
				hinted.Prefetch(keys)
				for i, k := range keys {
					v := core.Value(msg*100 + i)
					var a, b any
					switch ops[i] {
					case 0:
						va, oka := hinted.Get(k)
						vb, okb := plain.Get(k)
						a, b = [2]any{va, oka}, [2]any{vb, okb}
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
				}
				if hinted.Len() != plain.Len() {
					t.Fatalf("message %d: Len %d with the prefetch, %d without", msg, hinted.Len(), plain.Len())
				}
				for _, l := range logs {
					if err := l.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if cp := hinted.Stats().Checkpoints; cp < 100 {
				t.Fatalf("%d checkpoints in 300 messages: the stream must cross them", cp)
			}
			if st := pools[0].Stats(); st.PrefetchHits == 0 {
				t.Fatalf("the prefetching log's pool counted no prefetch hits: %+v", st)
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
		})
	}
}
