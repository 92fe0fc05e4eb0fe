package serve

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
)

// catalogRow returns the catalog row name builds under opt.
func catalogRow(opt methods.Options, name string) methods.Spec {
	spec, err := methods.Lookup(opt, name)
	if err != nil {
		panic(err)
	}
	return spec
}

// buildSkiplist is the cheapest catalog structure for correctness tests.
func buildSkiplist(int) *core.Instrumented { return catalogRow(methods.Options{}, "skiplist").New() }

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do1 executes one request through Do and returns its outcome. Do's error
// (ErrStopped after Stop) passes through, and an insert whose key was already
// present reports core.ErrKeyExists.
func do1(s *Server, op Op, k core.Key, v core.Value) (Result, error) {
	req := [1]Request{{Op: op, Key: k, Value: v}}
	var res [1]Result
	if err := s.Do(req[:], res[:]); err != nil {
		return Result{}, err
	}
	if op == OpInsert && !res[0].OK {
		return res[0], core.ErrKeyExists
	}
	return res[0], nil
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Build succeeded")
	}
	if _, err := New(Config{Shards: -1, Build: buildSkiplist}); err == nil {
		t.Fatal("New with negative shards succeeded")
	}
}

// TestSingleOpsAgainstModel drives one server with every op kind and checks
// outcomes against a map model.
func TestSingleOpsAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := mustNew(t, Config{Shards: shards, Build: buildSkiplist})
			model := map[core.Key]core.Value{}
			rng := rand.New(rand.NewPCG(7, uint64(shards)))
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Uint64N(512))
				v := core.Value(rng.Uint64())
				switch rng.UintN(4) {
				case 0:
					got, _ := do1(s, OpGet, k, 0)
					want, wantOK := model[k]
					if got.OK != wantOK || (got.OK && got.Value != want) {
						t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, got.Value, got.OK, want, wantOK)
					}
				case 1:
					_, err := do1(s, OpInsert, k, v)
					if _, exists := model[k]; exists {
						if err != core.ErrKeyExists {
							t.Fatalf("Insert(%d) of existing key = %v, want core.ErrKeyExists", k, err)
						}
					} else {
						if err != nil {
							t.Fatalf("Insert(%d): %v", k, err)
						}
						model[k] = v
					}
				case 2:
					r, _ := do1(s, OpUpdate, k, v)
					_, exists := model[k]
					if r.OK != exists {
						t.Fatalf("Update(%d) = %v, want %v", k, r.OK, exists)
					}
					if exists {
						model[k] = v
					}
				case 3:
					r, _ := do1(s, OpDelete, k, 0)
					_, exists := model[k]
					if r.OK != exists {
						t.Fatalf("Delete(%d) = %v, want %v", k, r.OK, exists)
					}
					delete(model, k)
				}
			}
			reports, err := s.Stop()
			if err != nil {
				t.Fatalf("Stop: %v", err)
			}
			if _, _, n := Aggregate(reports); n != len(model) {
				t.Fatalf("aggregate Len = %d, model has %d", n, len(model))
			}
		})
	}
}

// TestWALGroupCommit drives write-ahead-logged shards through the server:
// the shard must commit once per write-carrying mailbox message (not per
// op), every acknowledged write must be durably committed by Stop, and the
// shard reports must carry the log ledger.
func TestWALGroupCommit(t *testing.T) {
	// CommitBatch far above the workload: every commit observed below was
	// issued by the serving layer's batch-end hook, not by the log's own
	// auto-commit trigger.
	opt := methods.Options{PageSize: 512, PoolPages: 8, WAL: true, CommitBatch: 1 << 20}
	s := mustNew(t, Config{Shards: 2, Build: func(int) *core.Instrumented {
		return catalogRow(opt, "btree").New()
	}})
	const n = 500
	reqs := make([]Request, 0, n)
	for k := 0; k < n; k++ {
		reqs = append(reqs, Request{Op: OpInsert, Key: core.Key(k), Value: core.Value(k * 3)})
	}
	res := make([]Result, len(reqs))
	if err := s.Do(reqs, res); err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("insert %d not acknowledged", i)
		}
	}
	// A pure-read batch re-checks the data and must not add commits.
	for i := range reqs {
		reqs[i].Op = OpGet
	}
	if err := s.Do(reqs, res); err != nil {
		t.Fatalf("Do(get): %v", err)
	}
	for i, r := range res {
		if !r.OK || r.Value != core.Value(i*3) {
			t.Fatalf("Get(%d) = (%d,%v) after WAL insert", i, r.Value, r.OK)
		}
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	var committed, commits uint64
	for _, r := range reports {
		if r.WAL == nil {
			t.Fatalf("shard %d report has no WAL ledger", r.Shard)
		}
		committed += r.WAL.Committed
		commits += r.WAL.Commits
	}
	if committed != n {
		t.Fatalf("committed %d records, %d were acknowledged", committed, n)
	}
	// n/2 writes per shard and MaxBatch 256 means at most 2 messages per
	// shard — the commits must be per-message, orders of magnitude fewer
	// than the records they made durable.
	if commits == 0 || commits > 4 {
		t.Fatalf("%d group commits for %d records; want 1-2 per shard", commits, n)
	}
}

// TestDoBatchOrdering asserts per-call order: ops on the same key inside one
// Do batch (and across sequential Do calls) apply in submission order.
func TestDoBatchOrdering(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, MaxBatch: 3, Build: buildSkiplist})
	const k = core.Key(42)
	reqs := []Request{
		{Op: OpInsert, Key: k, Value: 1},
		{Op: OpUpdate, Key: k, Value: 2},
		{Op: OpGet, Key: k},
		{Op: OpDelete, Key: k},
		{Op: OpGet, Key: k},
		{Op: OpInsert, Key: k, Value: 3},
	}
	res := make([]Result, len(reqs))
	if err := s.Do(reqs, res); err != nil {
		t.Fatalf("Do: %v", err)
	}
	want := []Result{
		{OK: true},           // insert
		{OK: true},           // update existing
		{Value: 2, OK: true}, // get sees the update
		{OK: true},           // delete existing
		{OK: false},          // get after delete misses
		{OK: true},           // reinsert
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Do results = %+v, want %+v", res, want)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestConcurrentClientsConflictFree runs many clients over disjoint key
// subspaces; every client's outcomes must match its private model exactly,
// regardless of shard count, batch splitting, or scheduling. This is the
// test the race detector leans on.
func TestConcurrentClientsConflictFree(t *testing.T) {
	const clients = 6
	const opsPerClient = 3000
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := mustNew(t, Config{Shards: shards, MaxBatch: 64, Build: buildSkiplist})
			var wg sync.WaitGroup
			errs := make([]error, clients)
			lens := make([]int, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c], lens[c] = runClient(s, c, opsPerClient)
				}(c)
			}
			wg.Wait()
			total := 0
			for c, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
				total += lens[c]
			}
			reports, err := s.Stop()
			if err != nil {
				t.Fatalf("Stop: %v", err)
			}
			m, _, n := Aggregate(reports)
			if n != total {
				t.Fatalf("aggregate Len = %d, clients hold %d", n, total)
			}
			var served uint64
			for _, r := range reports {
				served += r.Ops
			}
			if served != clients*opsPerClient {
				t.Fatalf("shards served %d ops, want %d", served, clients*opsPerClient)
			}
			// Logical accounting is exact: every op charged once, 16 bytes.
			wantLogical := uint64(clients*opsPerClient) * core.RecordSize
			if got := m.LogicalRead + m.LogicalWritten; got != wantLogical {
				t.Fatalf("merged logical bytes = %d, want %d", got, wantLogical)
			}
		})
	}
}

// runClient replays a deterministic conflict-free stream in batches,
// checking every outcome against a private model; returns the model's final
// size.
func runClient(s *Server, id, ops int) (error, int) {
	rng := rand.New(rand.NewPCG(99, uint64(id)))
	model := map[core.Key]core.Value{}
	ns := core.Key(id+1) << 48
	const batch = 37 // deliberately not a divisor or power of two
	reqs := make([]Request, 0, batch)
	want := make([]Result, 0, batch)
	flush := func() error {
		res := make([]Result, len(reqs))
		if err := s.Do(reqs, res); err != nil {
			return err
		}
		for i := range res {
			if res[i] != want[i] {
				return fmt.Errorf("op %+v: got %+v, want %+v", reqs[i], res[i], want[i])
			}
		}
		reqs, want = reqs[:0], want[:0]
		return nil
	}
	for i := 0; i < ops; i++ {
		k := ns | core.Key(rng.Uint64N(256))
		v := core.Value(rng.Uint64())
		switch rng.UintN(4) {
		case 0:
			wv, ok := model[k]
			reqs = append(reqs, Request{Op: OpGet, Key: k})
			want = append(want, Result{Value: wv, OK: ok})
		case 1:
			_, exists := model[k]
			reqs = append(reqs, Request{Op: OpInsert, Key: k, Value: v})
			want = append(want, Result{OK: !exists})
			if !exists {
				model[k] = v
			}
		case 2:
			_, exists := model[k]
			reqs = append(reqs, Request{Op: OpUpdate, Key: k, Value: v})
			want = append(want, Result{OK: exists})
			if exists {
				model[k] = v
			}
		case 3:
			_, exists := model[k]
			reqs = append(reqs, Request{Op: OpDelete, Key: k})
			want = append(want, Result{OK: exists})
			delete(model, k)
		}
		if len(reqs) == batch {
			if err := flush(); err != nil {
				return err, 0
			}
		}
	}
	if err := flush(); err != nil {
		return err, 0
	}
	return nil, len(model)
}

// TestPreloadAndRangeScan bulk-loads a sorted dataset and checks broadcast
// scans return globally sorted, complete results at several shard counts.
func TestPreloadAndRangeScan(t *testing.T) {
	recs := make([]core.Record, 500)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i * 3), Value: core.Value(i)}
	}
	for _, shards := range []int{1, 5} {
		s := mustNew(t, Config{Shards: shards, Build: buildSkiplist})
		if err := s.Preload(recs); err != nil {
			t.Fatalf("shards=%d Preload: %v", shards, err)
		}
		var got []core.Record
		n := s.RangeScan(30, 300, func(k core.Key, v core.Value) bool {
			got = append(got, core.Record{Key: k, Value: v})
			return true
		})
		if n != len(got) {
			t.Fatalf("shards=%d RangeScan count %d != emitted %d", shards, n, len(got))
		}
		var want []core.Record
		for _, r := range recs {
			if r.Key >= 30 && r.Key <= 300 {
				want = append(want, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d RangeScan = %v, want %v", shards, got, want)
		}
		// Early-terminating emit stops the count.
		if n := s.RangeScan(0, ^core.Key(0), func(core.Key, core.Value) bool { return false }); n != 0 {
			t.Fatalf("shards=%d early-stop scan emitted %d", shards, n)
		}
		if _, err := s.Stop(); err != nil {
			t.Fatalf("shards=%d Stop: %v", shards, err)
		}
	}
}

// TestStorageBackedShards runs the full stack (btree over device + pool) with
// concurrent clients and a Flush barrier; under -race and -tags racecheck
// this is the proof that each shard's storage stack stays single-owner.
func TestStorageBackedShards(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Build: func(i int) *core.Instrumented {
		return methods.NewBTree(methods.Options{PoolPages: 8}, btree.Config{})
	}})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c], _ = runClient(s, c, 1500)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	m, _, _ := Aggregate(reports)
	if m.PhysicalWritten() == 0 {
		t.Fatal("btree shards flushed no physical bytes")
	}
}

// ledgers returns reports with the mailbox wait counters zeroed: how often a
// shard found its mailbox empty, and how each wait ended, is the scheduler's
// doing — the one part of a report that is not a function of the requests.
func ledgers(reports []ShardReport) []ShardReport {
	out := append([]ShardReport(nil), reports...)
	for i := range out {
		out[i].Mailbox = obs.MailboxPoint{}
	}
	return out
}

// TestMeterDeterminism: identical sequential runs produce identical merged
// meters and identical per-shard reports (modulo the mailbox wait counters —
// otherwise byte for byte).
func TestMeterDeterminism(t *testing.T) {
	run := func() []ShardReport {
		s := mustNew(t, Config{Shards: 4, Build: buildSkiplist})
		if err, _ := runClient(s, 0, 2000); err != nil {
			t.Fatalf("client: %v", err)
		}
		reports, err := s.Stop()
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
		return reports
	}
	a, b := ledgers(run()), ledgers(run())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sequential runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestStoppedServer: every entry point reports ErrStopped after Stop, and a
// second Stop errors instead of re-closing mailboxes.
func TestStoppedServer(t *testing.T) {
	s := mustNew(t, Config{Build: buildSkiplist})
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := s.Do([]Request{{Op: OpGet}}, make([]Result, 1)); err != ErrStopped {
		t.Fatalf("Do after Stop = %v, want ErrStopped", err)
	}
	if err := s.Flush(); err != ErrStopped {
		t.Fatalf("Flush after Stop = %v, want ErrStopped", err)
	}
	if err := s.Preload(nil); err != ErrStopped {
		t.Fatalf("Preload after Stop = %v, want ErrStopped", err)
	}
	if _, err := do1(s, OpInsert, 1, 1); err != ErrStopped {
		t.Fatalf("Insert after Stop = %v, want ErrStopped", err)
	}
	if _, err := s.Stop(); err != ErrStopped {
		t.Fatalf("second Stop = %v, want ErrStopped", err)
	}
}

// TestShardPanicDoesNotDeadlock: a shard whose Build panics completes every
// request routed to it (with zero results) and surfaces the panic from Stop.
func TestShardPanicDoesNotDeadlock(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Build: func(i int) *core.Instrumented {
		if i == 1 {
			panic("shard 1 refuses to build")
		}
		return buildSkiplist(i)
	}})
	// Enough keys that both shards are hit.
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: OpInsert, Key: core.Key(i), Value: 1}
	}
	res := make([]Result, len(reqs))
	if err := s.Do(reqs, res); err != nil {
		t.Fatalf("Do: %v", err)
	}
	_, err := s.Stop()
	if err == nil {
		t.Fatal("Stop reported no error for a panicked shard")
	}
}

func TestDoLengthMismatch(t *testing.T) {
	s := mustNew(t, Config{Build: buildSkiplist})
	defer s.Stop()
	if err := s.Do(make([]Request, 2), make([]Result, 1)); err == nil {
		t.Fatal("Do with mismatched slices succeeded")
	}
	if err := s.Do(nil, nil); err != nil {
		t.Fatalf("empty Do: %v", err)
	}
}

// TestShardOfDeterministicAndBalanced: routing depends only on key and shard
// count, and splitmix-scattered keys spread within 25% of even.
func TestShardOfDeterministicAndBalanced(t *testing.T) {
	s := mustNew(t, Config{Shards: 8, Build: buildSkiplist})
	defer s.Stop()
	counts := make([]int, 8)
	rng := rand.New(rand.NewPCG(3, 1))
	const n = 1 << 16
	for i := 0; i < n; i++ {
		k := core.Key(rng.Uint64() >> 24)
		h := s.shardOf(k)
		if h != s.shardOf(k) {
			t.Fatal("shardOf is not deterministic")
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < n/8*3/4 || c > n/8*5/4 {
			t.Fatalf("shard %d holds %d of %d keys (counts %v)", i, c, n, counts)
		}
	}
	// Sequential keys must spread too (the mixer, not the raw key, routes).
	seq := make([]int, 8)
	for i := 0; i < n; i++ {
		seq[s.shardOf(core.Key(i))]++
	}
	for i, c := range seq {
		if c < n/8*3/4 || c > n/8*5/4 {
			t.Fatalf("sequential keys: shard %d holds %d of %d (counts %v)", i, c, n, seq)
		}
	}
}

// Do must fully overwrite every result slot: clients reuse res buffers
// across batches, and a stale Value surviving a write op's OK-only update
// would corrupt outcome verification downstream.
func TestDoOverwritesReusedResults(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, Build: buildSkiplist})
	defer s.Stop()
	if _, err := do1(s, OpInsert, 7, 70); err != nil {
		t.Fatal(err)
	}
	res := []Result{{Value: 0xdead, OK: true}, {Value: 0xbeef, OK: true}}
	reqs := []Request{{Op: OpUpdate, Key: 7, Value: 71}, {Op: OpGet, Key: 404}}
	if err := s.Do(reqs, res); err != nil {
		t.Fatal(err)
	}
	if res[0] != (Result{OK: true}) {
		t.Errorf("update result = %+v, want {Value:0 OK:true}", res[0])
	}
	if res[1] != (Result{}) {
		t.Errorf("missing-get result = %+v, want zero", res[1])
	}
}
