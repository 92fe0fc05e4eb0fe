package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
)

// The mailbox wait strategy (shard.next) is tested on the counters it
// publishes, not on wall time: what a shard did with each idle period is in
// its report.

// checkMailboxLedger holds a final report to the counters' own invariant:
// every idle period ended in a polled message or a park, except at most the
// one Stop's close cut short.
func checkMailboxLedger(t *testing.T, rep ShardReport) {
	t.Helper()
	m := rep.Mailbox
	if open := m.IdlePeriods - m.Polled - m.Parked; open > 1 {
		t.Fatalf("shard %d: %d idle periods, %d polled + %d parked", rep.Shard, m.IdlePeriods, m.Polled, m.Parked)
	}
}

// TestMailboxBacksOffWhenOversubscribed: with sixteen readers that never
// block on two processors, a yield queues the shard behind their time
// slices. One such yield must buy a long stretch of plain parking — a shard
// that kept polling would pay it on every one of the writer's batches.
func TestMailboxBacksOffWhenOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("a bound on the scheduler, not on storage: the racecheck gate leaves it to the -race run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// The bound is on what the Go scheduler and the host did to a few
	// hundred yields; a neighbour's burst can fake a run of middling-slow
	// ones. A shard that polls through slow yields fails every attempt.
	for attempt := 1; ; attempt++ {
		worst := oversubscribedBackoffs(t)
		if worst <= 8 {
			return
		}
		if attempt == 3 {
			t.Fatalf("a shard backed off %d times; a slow yield must suspend polling, not repeat", worst)
		}
	}
}

// oversubscribedBackoffs runs the scenario once and returns the larger of the
// two shards' back-off counts.
func oversubscribedBackoffs(t *testing.T) uint64 {
	const (
		shards  = 2
		readers = 16
		n       = 2000
		batches = 600
	)
	s := mustNew(t, Config{Shards: shards, Snapshots: true, Build: buildMVCCBTree})
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := s.Preload(recs); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Pure-read batches are served off snapshots on this goroutine:
			// the reader never touches a mailbox and never blocks.
			reqs := make([]Request, 32)
			res := make([]Result, 32)
			for k := r; !stop.Load(); k += 32 {
				for i := range reqs {
					reqs[i] = Request{Op: OpGet, Key: core.Key((k + i) % n)}
				}
				if s.Do(reqs, res) != nil {
					return
				}
			}
		}(r)
	}
	reqs := make([]Request, 100)
	res := make([]Result, 100)
	for b := 0; b < batches; b++ {
		for i := range reqs {
			k := (b*len(reqs) + i) % n
			reqs[i] = Request{Op: OpUpdate, Key: core.Key(k), Value: core.Value(b)}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("writer Do: %v", err)
		}
		for i := range res {
			if !res[i].OK {
				t.Fatalf("batch %d: update of key %d not acknowledged", b, reqs[i].Key)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	reports, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	var worst uint64
	for _, rep := range reports {
		checkMailboxLedger(t, rep)
		worst = max(worst, rep.Mailbox.Backoffs)
		t.Logf("shard %d: %+v", rep.Shard, rep.Mailbox)
	}
	return worst
}

// TestIdleShardStopsPolling: a shard left alone is parked in the blocking
// receive, not polling. Reading the counters is itself a mailbox message, so
// two reads 20 ms apart differ by exactly the idle period the first one
// started — and that period must have ended in a park: a shard still polling
// 20 ms on would have taken the second read as a polled message.
func TestIdleShardStopsPolling(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: buildSkiplist})
	defer s.Stop()
	if err, _ := runClient(s, 0, 500); err != nil {
		t.Fatal(err)
	}
	read := func() []ShardReport {
		time.Sleep(20 * time.Millisecond)
		reports, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	first, second := read(), read()
	for i := range first {
		a, b := first[i].Mailbox, second[i].Mailbox
		if b.IdlePeriods-a.IdlePeriods != 1 || b.Parked-a.Parked != 1 || b.Polled != a.Polled {
			t.Errorf("shard %d did not sit parked between two reads: %+v then %+v", i, a, b)
		}
	}
}

// TestStopDuringPoll: Stop right behind a completed Do finds the shards
// inside their poll window; the close must end the poll, and the final
// report must carry everything the shard executed.
func TestStopDuringPoll(t *testing.T) {
	midPoll, backoffs := 0, uint64(0)
	for try := 0; try < 50; try++ {
		s := mustNew(t, Config{Shards: 2, Build: func(int) *core.Instrumented {
			return methods.NewBTree(methods.Options{PoolPages: 8}, btree.Config{})
		}})
		reqs := make([]Request, 64)
		res := make([]Result, 64)
		for i := range reqs {
			reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: core.Value(try)}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatal(err)
		}
		reports, err := s.Stop() // returns only once both shards have exited
		if err != nil {
			t.Fatal(err)
		}
		var mbox obs.MailboxPoint
		for _, rep := range reports {
			checkMailboxLedger(t, rep)
			mbox.Add(rep.Mailbox)
		}
		if m, _, records := Aggregate(reports); records != len(reqs) || m.WriteOps != uint64(len(reqs)) {
			t.Fatalf("try %d: final ledger holds %d records, %d write ops; want %d of each", try, records, m.WriteOps, len(reqs))
		}
		midPoll += int(mbox.IdlePeriods - mbox.Polled - mbox.Parked)
		backoffs += mbox.Backoffs
	}
	// On a host that lets yields through, a poll lasts the whole window and
	// Stop arrives microseconds into it. Only a host busy enough to push the
	// shards into back-off may leave every try finding them parked.
	if midPoll == 0 && backoffs == 0 {
		t.Fatal("50 stops right after a Do never found a shard polling")
	}
	t.Logf("%d shard polls ended by Stop, %d back-offs", midPoll, backoffs)
}
