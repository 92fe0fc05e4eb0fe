//go:build !racecheck

package wal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// The ingest-wal ledger pin. TestCheckpointLedgerPinned drives the store
// of rumperf ingest-wal's shards — BenchmarkCheckpoint's: a 1024-record
// memtable at size ratio 10 under a log that commits every 32 records, on
// 4 KiB MQSSD pages through 256 frames, here with ingest-wal's checkpoint
// every 4096 overlay records — through one fixed request stream, the way a
// shard serves it: each 32-request message is prefetched, applied and
// committed, and every 512th is followed by a range scan. Its device, pool,
// meter and log ledgers, the tree's counters and the answers it served were
// recorded before the overlay was radix-sorted and before a compaction
// merged into its own decode buffer, and must never be regenerated to make
// a change pass: a change to the checkpoint's CPU path may not move a page
// read, a page write, a byte of the meter or a merge. (The racecheck build
// leaves the file out: its ownership asserts take some forty seconds over
// this stream and change no counter.)

const (
	ledgerLive     = 1 << 17 // records preloaded and checkpointed
	ledgerKeys     = 1 << 18 // the uniform key space of the stream
	ledgerMessages = 8192    // 32-request messages: 262 144 requests
	ledgerSeed     = 58
)

// ledgerPinned is the stream's ledger, one line per layer.
var ledgerPinned = []string{
	"dev {PageReads:309720 PageWrites:24481 PagesAllocated:24481 PagesFreed:23768 CostUnits:688016 Batches:37703 BatchedPages:255752}",
	"pool {Hits:817395 Misses:309720 Evictions:317019 WriteBacks:12049 Overflows:0 Retries:0 RetryFailures:0 FlushFailures:0 FetchFailures:0 Unshares:0 Handovers:12049 PrefetchHits:248834 PrefetchUnused:0}",
	"meter {BaseRead:1368827648 AuxRead:72951344 BaseWritten:49352704 AuxWritten:50921472 LogicalRead:0 LogicalWritten:0 ReadOps:0 WriteOps:0}",
	"lsm {Flushes:235 Compactions:215 RunsBuilt:450 ManifestWrites:61} runs=2 depth=3",
	"wal commits=12310 syncs=12371 checkpoints=61 records=240523 logpages=12371 logbytes=4321561 recycled=12370 live=1 overlay=0 committed=241254 len=178247",
	"served 3bd78055789a34a4",
}

// ledgerKey spreads i over the whole key space, as BenchmarkCheckpoint does.
func ledgerKey(i int) core.Key { return core.Key(i) * 0x9E3779B97F4A7C15 >> 1 }

// ledger renders the stack's counters in ledgerPinned's layout; served is
// the digest of every answer the stream was given.
func ledger(l *Logged, pool *storage.BufferPool, served uint64) []string {
	st := l.Stats()
	return []string{
		fmt.Sprintf("dev %+v", pool.Device().Stats()),
		fmt.Sprintf("pool %+v", pool.Stats()),
		fmt.Sprintf("meter %+v", *l.Meter()),
		innerLedger(l),
		fmt.Sprintf("wal commits=%d syncs=%d checkpoints=%d records=%d logpages=%d logbytes=%d recycled=%d live=%d overlay=%d committed=%d len=%d",
			st.Commits, st.Syncs, st.Checkpoints, st.CheckpointRecords, st.LogPagesWritten, st.LogBytesWritten,
			st.PagesRecycled, st.LiveLogPages, st.OverlayRecords, l.Committed(), l.Len()),
		fmt.Sprintf("served %016x", served),
	}
}

func TestCheckpointLedgerPinned(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 256)
	l, err := NewLSM(pool, lsm.Config{MemtableRecords: 1024, SizeRatio: 10}, Config{CommitBatch: 32, CheckpointEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ledgerLive; i++ {
		if err := l.Insert(ledgerKey(2*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The stream: rumperf ingest-wal's mix (get 0.1, insert 0.6, update 0.2,
	// delete 0.1) over uniform keys, every answer folded into served.
	rng := rand.New(rand.NewSource(ledgerSeed))
	served := fnv.New64a()
	keys := make([]core.Key, 32)
	kinds := make([]int, 32)
	for m := 0; m < ledgerMessages; m++ {
		for i := range keys {
			keys[i], kinds[i] = ledgerKey(rng.Intn(ledgerKeys)), rng.Intn(10)
		}
		l.Prefetch(keys)
		for i, k := range keys {
			v := core.Value(m*len(keys) + i)
			var ans string
			switch kind := kinds[i]; {
			case kind < 1:
				got, ok := l.Get(k)
				ans = fmt.Sprint(got, ok)
			case kind < 7:
				ans = fmt.Sprint(l.Insert(k, v))
			case kind < 9:
				ans = fmt.Sprint(l.Update(k, v))
			default:
				ans = fmt.Sprint(l.Delete(k))
			}
			fmt.Fprintln(served, ans)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		// Now and then a scan of a 1/256 slice of the key space, over an
		// overlay that is neither empty nor whole.
		if m%512 == 511 {
			lo := ledgerKey(rng.Intn(ledgerKeys))
			l.RangeScan(lo, lo+1<<55, func(k core.Key, v core.Value) bool {
				fmt.Fprintln(served, k, v)
				return true
			})
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := ledger(l, pool, served.Sum64())
	for i := range got {
		if got[i] != ledgerPinned[i] {
			t.Errorf("ledger line %d moved:\n got  %s\n want %s", i, got[i], ledgerPinned[i])
		}
	}
}
