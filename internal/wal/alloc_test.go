//go:build !racecheck

package wal

import (
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// The allocation gates of the commit and checkpoint paths. (The racecheck
// build allocates by design — stack captures in the ownership asserts — so
// this file is left out of it, like storage's miss-path gate.)

// commitLoop returns a log on a 512-byte-page device and a function that
// group-commits one group of the given size. The log has already committed
// and recycled more pages than any measurement will append, so the device
// serves every log page from its free list and livePages has its capacity:
// what is left is the steady state. Every 1024 commits the loop checkpoints,
// returning the pages.
func commitLoop(tb testing.TB, medium storage.Medium, group int) (*Logged, func()) {
	tb.Helper()
	pool := storage.NewBufferPool(storage.NewDevice(512, medium, nil), 16)
	l, err := NewBTree(pool, btree.Config{}, Config{CommitBatch: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]logRecord, group)
	for i := range recs {
		recs[i] = logRecord{kind: recUpsert, key: core.Key(i), val: core.Value(i)}
	}
	commits := 0
	commit := func() {
		l.pending = append(l.pending[:0], recs...)
		if err := l.Commit(); err != nil {
			tb.Fatal(err)
		}
		if commits++; commits%1024 == 0 {
			if err := l.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for commits < 1024 {
		commit()
	}
	return l, commit
}

// TestCommitDoesNotAllocate: a steady-state group commit — one record, the
// benchmark's group of 32 (two pages here), a five-page group — encodes into
// the log's own frames and allocates nothing, on the sequential append path
// and on the WriteBatch one.
func TestCommitDoesNotAllocate(t *testing.T) {
	for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
		for _, group := range []int{1, 32, 128} {
			l, commit := commitLoop(t, medium, group)
			before := l.Stats()
			if allocs := testing.AllocsPerRun(500, commit); allocs != 0 {
				t.Errorf("%v, group of %d: Commit allocated %v times, want 0", medium, group, allocs)
			}
			st := l.Stats()
			pages := (st.LogPagesWritten - before.LogPagesWritten) / (st.Commits - before.Commits)
			if want := map[int]uint64{1: 1, 32: 2, 128: 5}[group]; pages != want {
				t.Fatalf("%v, group of %d: %d pages per commit, want %d", medium, group, pages, want)
			}
		}
	}
}

// checkpointLoop returns a logged LSM holding keys 0..live-1 and a function
// that overwrites the first n of them and checkpoints. The memtable is larger
// than any n, so a checkpoint is one level-0 run and the consolidation it
// triggers; overwriting keeps the tree — and, once warm, the device and the
// pool — at a fixed size.
func checkpointLoop(tb testing.TB, live, n int) (*Logged, func()) {
	tb.Helper()
	pool := storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 64)
	l, err := NewLSM(pool, lsm.Config{MemtableRecords: 1 << 20}, Config{CommitBatch: 32})
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < live; k++ {
		if err := l.Insert(core.Key(k), 1); err != nil {
			tb.Fatal(err)
		}
	}
	v := core.Value(1)
	checkpoint := func() {
		v++
		for k := 0; k < n; k++ {
			if !l.Update(core.Key(k), v) {
				tb.Fatalf("update of key %d failed", k)
			}
		}
		if err := l.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		checkpoint()
	}
	return l, checkpoint
}

// TestCheckpointAllocsBounded: what a checkpoint allocates does not scale
// with the overlay it absorbs. The batch, the ingest hand-off and the log
// frames are reused; what remains is the run directory the tree keeps (a run,
// its page and fence slices, which grow by doubling) and the compaction's
// few buffers. The parent allocated two skip-list objects per record here.
func TestCheckpointAllocsBounded(t *testing.T) {
	const live, small, large = 8192, 512, 4096
	per := make(map[int]float64)
	for _, n := range []int{small, large} {
		l, checkpoint := checkpointLoop(t, live, n)
		before := l.Stats()
		// Updates and their group commits are part of the loop but allocate
		// nothing in steady state (TestCommitDoesNotAllocate), so the count
		// is the checkpoint's.
		per[n] = testing.AllocsPerRun(8, checkpoint)
		st := l.Stats()
		if got := (st.CheckpointRecords - before.CheckpointRecords) / (st.Checkpoints - before.Checkpoints); got != uint64(n) {
			t.Fatalf("checkpoints absorbed %d records each, want %d", got, n)
		}
	}
	t.Logf("allocations per checkpoint: %v at %d records, %v at %d", per[small], small, per[large], large)
	if per[large] > per[small]+16 || per[large] > large/16 {
		t.Errorf("allocations grow with the overlay: %v at %d records, %v at %d", per[small], small, per[large], large)
	}
}

// TestLoggedPrefetchAllocs: in the steady state a message's Prefetch — the
// overlay and memo checks, the structure's GetBatch, the memo refill — and
// the probes that read the memo back allocate nothing, over either structure.
// The messages rotate through a key set larger than one message, so each
// Prefetch replaces a memo full of other keys.
func TestLoggedPrefetchAllocs(t *testing.T) {
	for _, structure := range []string{"btree", "lsm"} {
		pool := storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 16)
		var (
			l   *Logged
			err error
		)
		if structure == "btree" {
			l, err = NewBTree(pool, btree.Config{}, Config{CommitBatch: 32})
		} else {
			l, err = NewLSM(pool, lsm.Config{MemtableRecords: 1024}, Config{CommitBatch: 32})
		}
		if err != nil {
			t.Fatal(err)
		}
		const live = 20000
		for k := 0; k < live; k++ {
			if err := l.Insert(core.Key(k), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var keys [8][48]core.Key
		for m := range keys {
			for i := range keys[m] {
				keys[m][i] = core.Key((m*4801 + i*409) % (live + 500)) // a few past the end
			}
		}
		msg := 0
		message := func() {
			ks := keys[msg%len(keys)][:]
			msg++
			l.Prefetch(ks)
			for _, k := range ks {
				if _, ok := l.Get(k); ok != (k < live) {
					t.Fatalf("%s: key %d found %v", structure, k, ok)
				}
			}
		}
		for i := 0; i < 2*len(keys); i++ {
			message()
		}
		before := pool.Stats().PrefetchHits
		if allocs := testing.AllocsPerRun(200, message); allocs != 0 {
			t.Errorf("%s: a prefetched message allocated %v times, want 0", structure, allocs)
		}
		if pool.Stats().PrefetchHits == before {
			t.Fatalf("%s: the messages prefetched nothing", structure)
		}
	}
}

func BenchmarkCommit(b *testing.B) {
	for _, group := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			_, commit := commitLoop(b, storage.MQSSD, group)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
		})
	}
}

// BenchmarkCheckpoint times one full checkpoint interval of the rumperf
// ingest-wal shape — 4096 overlay records into an LSM with a 1024-record
// memtable — mutations and group commits included. The preload goes through
// the overlay with no automatic checkpoint, and a Go map never shrinks, so
// the log gets a fresh overlay after it: otherwise every timed checkpoint
// iterates and clears a map sized for 65 536 keys that holds 4 096, which a
// serving log, checkpointing every few thousand records, never does.
func BenchmarkCheckpoint(b *testing.B) {
	const live, n = 1 << 16, 4096
	pool := storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 256)
	l, err := NewLSM(pool, lsm.Config{MemtableRecords: 1024, SizeRatio: 10}, Config{CommitBatch: 32})
	if err != nil {
		b.Fatal(err)
	}
	key := func(i int) core.Key { return core.Key(i) * 0x9E3779B97F4A7C15 >> 1 }
	for i := 0; i < live; i++ {
		if err := l.Insert(key(i), 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	l.overlay = make(map[core.Key]entry)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if !l.Update(key((i*n+j*17)%live), core.Value(i+2)) {
				b.Fatal("update failed")
			}
		}
		if err := l.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
