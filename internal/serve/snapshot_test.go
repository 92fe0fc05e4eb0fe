package serve

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/rum"
)

// meterMonotone reports whether every counter of b is ≥ its counter in a.
func meterMonotone(a, b rum.Meter) bool {
	return b.BaseRead >= a.BaseRead && b.AuxRead >= a.AuxRead &&
		b.BaseWritten >= a.BaseWritten && b.AuxWritten >= a.AuxWritten &&
		b.LogicalRead >= a.LogicalRead && b.LogicalWritten >= a.LogicalWritten &&
		b.ReadOps >= a.ReadOps && b.WriteOps >= a.WriteOps
}

// TestSnapshotMonotoneAndNonDestructive: consecutive snapshots are monotone
// per shard, and the final Stop report is byte-identical to a snapshot taken
// after the last request — proof that snapshotting consumed nothing.
func TestSnapshotMonotoneAndNonDestructive(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Build: buildSkiplist})
	if err, _ := runClient(s, 0, 1000); err != nil {
		t.Fatalf("client: %v", err)
	}
	snap1, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err, _ := runClient(s, 1, 1000); err != nil {
		t.Fatalf("client: %v", err)
	}
	snap2, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap1) != 4 || len(snap2) != 4 {
		t.Fatalf("snapshot lengths %d, %d; want 4", len(snap1), len(snap2))
	}
	var ops1, ops2 uint64
	for i := range snap2 {
		if snap1[i].Shard != i || snap2[i].Shard != i {
			t.Fatalf("snapshot out of shard order: %+v / %+v", snap1[i], snap2[i])
		}
		if snap2[i].Ops < snap1[i].Ops {
			t.Fatalf("shard %d ops went backwards: %d then %d", i, snap1[i].Ops, snap2[i].Ops)
		}
		if !meterMonotone(snap1[i].Meter, snap2[i].Meter) {
			t.Fatalf("shard %d meter not monotone:\n%+v\nthen\n%+v", i, snap1[i].Meter, snap2[i].Meter)
		}
		if snap2[i].Name != "skiplist" {
			t.Fatalf("shard %d name = %q", i, snap2[i].Name)
		}
		ops1 += snap1[i].Ops
		ops2 += snap2[i].Ops
	}
	if ops1 != 1000 || ops2 != 2000 {
		t.Fatalf("snapshot op totals %d, %d; want 1000, 2000", ops1, ops2)
	}
	// A second snapshot with no traffic in between is identical — reading
	// the ledger does not move it.
	snap3, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !reflect.DeepEqual(ledgers(snap2), ledgers(snap3)) {
		t.Fatalf("idle snapshots differ:\n%+v\nvs\n%+v", snap2, snap3)
	}
	// And the Stop report equals the last snapshot exactly, aggregate and
	// per shard.
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if !reflect.DeepEqual(ledgers(snap3), ledgers(reports)) {
		t.Fatalf("Stop report differs from last snapshot:\n%+v\nvs\n%+v", reports, snap3)
	}
	m1, sz1, n1 := Aggregate(snap3)
	m2, sz2, n2 := Aggregate(reports)
	if m1 != m2 || sz1 != sz2 || n1 != n2 {
		t.Fatal("snapshot aggregate differs from Stop aggregate")
	}
}

// TestSnapshotAfterStop: a clean ErrStopped, never a deadlock or a send on
// a closed mailbox.
func TestSnapshotAfterStop(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: buildSkiplist})
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	reports, err := s.Snapshot()
	if err != ErrStopped {
		t.Fatalf("Snapshot after Stop = (%v, %v), want ErrStopped", reports, err)
	}
	if reports != nil {
		t.Fatalf("Snapshot after Stop returned reports: %+v", reports)
	}
}

// TestSnapshotDeadShard: a panicked shard answers snapshots with its error
// report instead of hanging the broadcast; live shards report real state.
func TestSnapshotDeadShard(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: func(i int) *core.Instrumented {
		if i == 1 {
			panic("shard 1 refuses to build")
		}
		return methods.NewSkiplist()
	}})
	// Route traffic so shard death is flushed through the mailbox.
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: 1}
	}
	if err := s.Do(reqs, make([]Result, len(reqs))); err != nil {
		t.Fatalf("Do: %v", err)
	}
	reports, err := s.Snapshot()
	if err == nil {
		t.Fatal("Snapshot of a dead shard reported no error")
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	if reports[1].Err == nil {
		t.Fatalf("dead shard's report carries no error: %+v", reports[1])
	}
	if reports[0].Err != nil || reports[0].Name != "skiplist" {
		t.Fatalf("live shard's report broken: %+v", reports[0])
	}
	if _, err := s.Stop(); err == nil {
		t.Fatal("Stop reported no error for a panicked shard")
	}
}

// TestSnapshotUnderLoad interleaves snapshots with full-rate client traffic
// on a storage-backed stack; with -race and -tags racecheck this is the
// proof that live snapshots keep the single-owner contract.
func TestSnapshotUnderLoad(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Build: func(i int) *core.Instrumented {
		return methods.NewBTree(methods.Options{PoolPages: 8}, btree.Config{})
	}})
	stop := make(chan struct{})
	var snaps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev []ShardReport
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := s.Snapshot()
			if err != nil {
				t.Errorf("Snapshot under load: %v", err)
				return
			}
			snaps.Add(1)
			if prev != nil {
				for i := range cur {
					if cur[i].Ops < prev[i].Ops || !meterMonotone(prev[i].Meter, cur[i].Meter) {
						t.Errorf("shard %d regressed under load", i)
						return
					}
				}
			}
			prev = cur
		}
	}()
	var cwg sync.WaitGroup
	errs := make([]error, 4)
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			errs[c], _ = runClient(s, c, 1500)
		}(c)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if snaps.Load() == 0 {
		t.Fatal("snapshot loop never ran")
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSnapshotMonotoneUnderMVCC takes Server.Snapshot mid-traffic on an MVCC
// server, where bypass readers merge their meters into the shard's reader
// meter concurrently with the shard reading its ledger: every snapshot is
// monotone per shard against the next one and the last against Stop's
// report, which holds every operation exactly once.
func TestSnapshotMonotoneUnderMVCC(t *testing.T) {
	const shards, n, readers, rounds, batch = 2, 400, 3, 200, 32
	s := mustNew(t, Config{Shards: shards, Snapshots: true, Build: buildMVCCBTree})
	reqs := make([]Request, n)
	for k := range reqs {
		reqs[k] = Request{Op: OpInsert, Key: core.Key(k), Value: core.Value(k)}
	}
	if err := s.Do(reqs, make([]Result, n)); err != nil {
		t.Fatalf("Do(insert): %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, readers+1)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := OpGet // readers bypass the mailbox; the last client writes
			if c == readers {
				op = OpUpdate
			}
			reqs, res := make([]Request, batch), make([]Result, batch)
			for r := 0; r < rounds && errs[c] == nil; r++ {
				for i := range reqs {
					reqs[i] = Request{Op: op, Key: core.Key((c*rounds + r*batch + i) % n), Value: 1}
				}
				errs[c] = s.Do(reqs, res)
			}
		}()
	}
	var prev []ShardReport
	monotone := func(cur []ShardReport, what string) {
		t.Helper()
		for i := range cur {
			if cur[i].Ops < prev[i].Ops || !meterMonotone(prev[i].Meter, cur[i].Meter) {
				t.Fatalf("shard %d regressed at %s:\n%+v\nthen\n%+v", i, what, prev[i], cur[i])
			}
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	taken := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if prev != nil {
			monotone(cur, "the next snapshot")
		}
		prev = cur
		taken++
	}
	if taken < 3 {
		t.Fatalf("%d snapshots taken, want some mid-traffic", taken)
	}
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	monotone(reports, "Stop")
	m, _, _ := Aggregate(reports)
	var ops uint64
	for _, r := range reports {
		ops += r.Ops
	}
	if want := uint64(n + (readers+1)*rounds*batch); ops != want {
		t.Fatalf("Stop reports %d ops, want %d", ops, want)
	}
	if want := uint64(readers*rounds*batch) * core.RecordSize; m.LogicalRead < want {
		t.Fatalf("Stop ledger LogicalRead = %d, want at least the readers' %d", m.LogicalRead, want)
	}
	if _, bypassed := s.ReaderStats(); bypassed == 0 {
		t.Fatal("no read was served off a snapshot")
	}
}

// TestDoReusedBufferAcrossCalls locks in the PR 4 stale-Value fix across
// calls: a Result buffer recycled between Do calls must never leak an
// earlier call's Value into a later outcome.
func TestDoReusedBufferAcrossCalls(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: buildSkiplist})
	defer s.Stop()
	res := make([]Result, 2)
	// Call 1 fills both slots with found Values.
	if err := s.Do([]Request{
		{Op: OpInsert, Key: 1, Value: 11},
		{Op: OpInsert, Key: 2, Value: 22},
	}, res); err != nil {
		t.Fatal(err)
	}
	if err := s.Do([]Request{{Op: OpGet, Key: 1}, {Op: OpGet, Key: 2}}, res); err != nil {
		t.Fatal(err)
	}
	if res[0].Value != 11 || res[1].Value != 22 {
		t.Fatalf("warmup gets = %+v", res)
	}
	// Call 2 reuses the buffer for ops that produce no Value: a miss and a
	// delete. Stale 11/22 must not survive.
	if err := s.Do([]Request{{Op: OpGet, Key: 404}, {Op: OpDelete, Key: 2}}, res); err != nil {
		t.Fatal(err)
	}
	if res[0] != (Result{}) {
		t.Errorf("missed get leaked stale result: %+v", res[0])
	}
	if res[1] != (Result{OK: true}) {
		t.Errorf("delete leaked stale value: %+v", res[1])
	}
}

// BenchmarkSnapshot measures a snapshot's cost as shard count grows — the
// O(shards) claim: one mailbox round-trip and one struct copy per shard, no
// dependence on data volume or request history.
func BenchmarkSnapshot(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4", 16: "shards=16"}[shards], func(b *testing.B) {
			s, err := New(Config{Shards: shards, Build: buildSkiplist})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			if err, _ := runClient(s, 0, 2000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDoUnderSnapshots measures the Do hot path with and without a
// concurrent snapshotter — the "telemetry overhead with no scraper / with a
// scraper" comparison quoted in the PR. Snapshots ride the same mailboxes
// as requests, so the no-scraper path carries zero extra synchronization.
func BenchmarkDoUnderSnapshots(b *testing.B) {
	run := func(b *testing.B, snapshots bool) {
		s, err := New(Config{Shards: 4, Build: buildSkiplist})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Stop()
		stop := make(chan struct{})
		defer close(stop)
		if snapshots {
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
						s.Snapshot()
					}
				}
			}()
		}
		const batch = 64
		reqs := make([]Request, batch)
		res := make([]Result, batch)
		for i := range reqs {
			reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: 1}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Do(reqs, res); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(batch * core.RecordSize)
	}
	b.Run("quiet", func(b *testing.B) { run(b, false) })
	b.Run("scraped-hard", func(b *testing.B) { run(b, true) })
}
