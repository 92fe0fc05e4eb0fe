package serve

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/methods"
	"repro/internal/rum"
)

func buildMVCCBTree(int) *core.Instrumented {
	return methods.NewBTree(methods.Options{PageSize: 512, PoolPages: 64}, btree.Config{Versions: 3})
}

func buildMVCCLSM(int) *core.Instrumented {
	return methods.NewLSM(methods.Options{PageSize: 512, PoolPages: 64},
		lsm.Config{MemtableRecords: 256, BloomBitsPerKey: 10, Versions: 3})
}

// TestSnapshotsUnsupportedFallsBack: a structure without SnapshotReader
// keeps working with Config.Snapshots on — reads just flow through the
// mailbox.
func TestSnapshotsUnsupportedFallsBack(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Snapshots: true, Build: buildSkiplist})
	if _, err := do1(s, OpInsert, 1, 10); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if r, _ := do1(s, OpGet, 1, 0); !r.OK || r.Value != 10 {
		t.Fatalf("Get(1) = %d,%v; want 10,true", r.Value, r.OK)
	}
	if active, ops := s.ReaderStats(); active != 0 || ops != 0 {
		t.Fatalf("ReaderStats = %d,%d on an unsupported structure; want 0,0", active, ops)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSnapshotReadYourWrites: in strict mode (StalenessOps=1, the default),
// a client that completed a write call observes it in subsequent reads even
// though those reads bypass the mailbox.
func TestSnapshotReadYourWrites(t *testing.T) {
	for name, build := range map[string]func(int) *core.Instrumented{
		"btree": buildMVCCBTree, "lsm": buildMVCCLSM,
	} {
		t.Run(name, func(t *testing.T) {
			s := mustNew(t, Config{Shards: 4, Snapshots: true, Build: build})
			for k := uint64(0); k < 500; k++ {
				if _, err := do1(s, OpInsert, k, k*2); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
				if r, _ := do1(s, OpGet, k, 0); !r.OK || r.Value != k*2 {
					t.Fatalf("Get(%d) after Insert = %d,%v; want %d,true", k, r.Value, r.OK, k*2)
				}
			}
			_, ops := s.ReaderStats()
			if ops == 0 {
				t.Fatal("no reads were served from snapshots")
			}
			if _, err := s.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestSnapshotBatchOutcomes runs a mixed workload against a model with
// pure-read batches interleaved, exercising the bypass and the unchunked
// read path (MaxBatch smaller than the batches).
func TestSnapshotBatchOutcomes(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, MaxBatch: 16, Snapshots: true, Build: buildMVCCBTree})
	model := map[core.Key]core.Value{}
	rng := rand.New(rand.NewPCG(3, 9))
	for round := 0; round < 40; round++ {
		// A write batch...
		reqs := make([]Request, 64)
		res := make([]Result, 64)
		for i := range reqs {
			k := core.Key(rng.Uint64N(800))
			v := core.Value(rng.Uint64())
			if _, exists := model[k]; exists {
				reqs[i] = Request{Op: OpUpdate, Key: k, Value: v}
			} else {
				reqs[i] = Request{Op: OpInsert, Key: k, Value: v}
			}
			model[k] = v
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do(write): %v", err)
		}
		// ...then a pure-read batch over the whole keyspace.
		for i := range reqs {
			reqs[i] = Request{Op: OpGet, Key: core.Key(rng.Uint64N(800))}
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do(read): %v", err)
		}
		for i := range reqs {
			want, wantOK := model[reqs[i].Key]
			if res[i].OK != wantOK || (wantOK && res[i].Value != want) {
				t.Fatalf("round %d: Get(%d) = (%d,%v), want (%d,%v)",
					round, reqs[i].Key, res[i].Value, res[i].OK, want, wantOK)
			}
		}
	}
	// RangeScan from snapshots must agree with the model too.
	got := map[core.Key]core.Value{}
	s.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(model) {
		t.Fatalf("RangeScan saw %d records, model has %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("RangeScan[%d] = %d, want %d", k, got[k], v)
		}
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	var snaps int
	for _, r := range reports {
		snaps += r.SnapVersions
	}
	if snaps == 0 {
		t.Fatal("no shard reported retained snapshot versions")
	}
}

// TestSnapshotMeterExact: the aggregated Stop ledger must contain every
// logical read exactly once, whether it was served by the shard goroutine or
// by a bypass reader. Logical accounting is deterministic (RecordSize per
// point read), so the total is checked against the op count.
func TestSnapshotMeterExact(t *testing.T) {
	const n = 600
	s := mustNew(t, Config{Shards: 4, Snapshots: true, Build: buildMVCCBTree})
	for k := uint64(0); k < n; k++ {
		if _, err := do1(s, OpInsert, k, k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Pure-read batches: all served off snapshots.
	reqs := make([]Request, n)
	res := make([]Result, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, Key: core.Key(i)}
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		if err := s.Do(reqs, res); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	reports, err := s.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	m, _, _ := Aggregate(reports)
	wantReads := uint64(n*rounds) * core.RecordSize
	if m.LogicalRead != wantReads {
		t.Fatalf("aggregate LogicalRead = %d, want %d (reader traffic lost or duplicated)", m.LogicalRead, wantReads)
	}
	var ops uint64
	for _, r := range reports {
		ops += r.Ops
	}
	if ops != uint64(n+n*rounds) {
		t.Fatalf("aggregate Ops = %d, want %d", ops, n+n*rounds)
	}
}

// newBypassServer returns two shards of a resident B-tree, preloaded with n
// keys and published, so that every pure-read Do is served off snapshots on
// the caller's goroutine.
func newBypassServer(tb testing.TB, n int) *Server {
	tb.Helper()
	s, err := New(Config{Shards: 2, Snapshots: true, Build: func(int) *core.Instrumented {
		return methods.NewBTree(methods.Options{PoolPages: 1 << 12}, btree.Config{Versions: 3})
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Stop() })
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := s.Preload(recs); err != nil {
		tb.Fatal(err)
	}
	if err := s.Flush(); err != nil { // the barrier publishes
		tb.Fatal(err)
	}
	return s
}

// TestBypassDoAllocatesNothing pins what the bypass has claimed since it was
// pooled: a Do served entirely off snapshots allocates no completion, no
// channel and no scratch — the keys, values and oks it hands GetBatch come
// from the recycled doScratch, not from Do's stack, where passing them
// through the core.Snapshot interface would make them escape. Each call is
// measured on its own and the pin is on the majority: under the race detector
// sync.Pool drops a quarter of what is Put, and the Do that follows a drop
// pays for a fresh scratch; a Do that allocates by itself does so every time.
func TestBypassDoAllocatesNothing(t *testing.T) {
	const batch, n, calls = 64, 1 << 14, 200
	s := newBypassServer(t, n)
	reqs, res := make([]Request, batch), make([]Result, batch)
	x := uint32(1)
	do := func() {
		for i := range reqs {
			x = x*1664525 + 1013904223
			reqs[i] = Request{Op: OpGet, Key: core.Key(x >> 8 % (n + n/8))} // one in nine misses
		}
		if err := s.Do(reqs, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if want := reqs[i].Key < n; r.OK != want || (want && r.Value != reqs[i].Key) || (!want && r.Value != 0) {
				t.Fatalf("Get(%d) = %+v", reqs[i].Key, r)
			}
		}
	}
	allocating, most := 0, 0.0
	for i := 0; i < calls; i++ {
		if a := testing.AllocsPerRun(1, do); a > 0 { // one warm-up call, one measured
			allocating++
			most = max(most, a)
		}
	}
	if _, ops := s.ReaderStats(); ops != 2*calls*batch {
		t.Fatalf("%d requests served off snapshots, want all %d", ops, 2*calls*batch)
	}
	if allocating*2 > calls {
		t.Fatalf("%d of %d bypassed Do calls allocate (up to %v per call), want none", allocating, calls, most)
	}
}

// BenchmarkDoBypass is the read side of rumperf's snapshot-read: one client,
// two shards, 64 point reads per Do, all served off snapshots on the client
// goroutine through GetBatch. ns/op is per Do.
func BenchmarkDoBypass(b *testing.B) {
	const batch, n = 64, 1 << 17
	s := newBypassServer(b, n)
	reqs, res := make([]Request, batch), make([]Result, batch)
	x := uint32(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			x = x*1664525 + 1013904223
			reqs[j] = Request{Op: OpGet, Key: core.Key(x >> 8 % n)}
		}
		if err := s.Do(reqs, res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotConcurrentReadersStress is the serve-level single-writer/
// many-reader stress: per the issue, one writer client and eight reader
// clients per shard, readers asserting no torn reads (values always match
// the key's generation discipline) and monotone snapshot epochs. Run with
// -race.
func TestSnapshotConcurrentReadersStress(t *testing.T) {
	for name, build := range map[string]func(int) *core.Instrumented{
		"btree": buildMVCCBTree, "lsm": buildMVCCLSM,
	} {
		t.Run(name, func(t *testing.T) {
			const (
				shards  = 2
				readers = 8 * shards
				n       = 2000
			)
			s := mustNew(t, Config{Shards: shards, Snapshots: true, Build: build})
			// Keys hold v = k ^ (gen<<32); readers accept any generation but
			// never a torn mix.
			for k := uint64(0); k < n; k++ {
				if _, err := do1(s, OpInsert, k, k); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}

			var stop atomic.Bool
			var torn atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, 17))
					reqs := make([]Request, 32)
					res := make([]Result, 32)
					for !stop.Load() {
						for i := range reqs {
							reqs[i] = Request{Op: OpGet, Key: core.Key(rng.Uint64N(n))}
						}
						if err := s.Do(reqs, res); err != nil {
							return
						}
						for i := range res {
							if !res[i].OK {
								torn.Add(1) // keys are never deleted
								return
							}
							k := uint64(reqs[i].Key)
							if res[i].Value != k && res[i].Value&0xffffffff != k {
								torn.Add(1)
								return
							}
						}
					}
				}(uint64(r + 1))
			}

			// One writer client: update generations batch by batch.
			reqs := make([]Request, 100)
			res := make([]Result, 100)
			gens := uint64(30)
			if testing.Short() {
				gens = 4 // the racecheck gate asserts every page access: half a second a generation
			}
			for gen := uint64(1); gen <= gens; gen++ {
				for b := 0; b < n/len(reqs); b++ {
					for i := range reqs {
						k := uint64(b*len(reqs) + i)
						reqs[i] = Request{Op: OpUpdate, Key: core.Key(k), Value: core.Value(k | gen<<32)}
					}
					if err := s.Do(reqs, res); err != nil {
						t.Fatalf("writer Do: %v", err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			if torn.Load() != 0 {
				t.Fatalf("%d torn/stale reads", torn.Load())
			}
			if _, err := s.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestSnapshotRetainIsTheOnlyGuard: with one version retained, a superseded
// version leaves the window inside the very Publish that replaces it, and
// once the shard releases it the next Publish reclaims its pages. A reader
// that loaded the installed snapshot just before the swap is kept off those
// pages by nothing but Retain refusing to revive a zero count. Concurrent
// pure-read Do and RangeScan readers run against a writer republishing after
// every write, and one reader per shard splits acquireSnap in two, waiting
// out two publishes between the load and the Retain so that it loses that
// race every time. Under -tags racecheck a read of a reclaimed page panics.
func TestSnapshotRetainIsTheOnlyGuard(t *testing.T) {
	// The writer runs until the stale readers have been refused often enough,
	// which a Retain that revives a zero count never is: hence the cap.
	const shards, n, minWrites, maxWrites, wantRefused = 2, 512, 1000, 50000, 64
	s := mustNew(t, Config{Shards: shards, Snapshots: true, Build: func(int) *core.Instrumented {
		return methods.NewBTree(methods.Options{PageSize: 512, PoolPages: 64}, btree.Config{Versions: 1})
	}})
	reqs := make([]Request, n)
	for k := range reqs {
		reqs[k] = Request{Op: OpInsert, Key: core.Key(k), Value: core.Value(k)}
	}
	if err := s.Do(reqs, make([]Result, n)); err != nil {
		t.Fatalf("Do(insert): %v", err)
	}
	var stop atomic.Bool
	var bad, refused atomic.Int64
	check := func(k core.Key, v core.Value) bool {
		if v&0xffffffff != core.Value(k) { // v = k | gen<<32
			bad.Add(1)
		}
		return true
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 29))
			reqs, res := make([]Request, 16), make([]Result, 16)
			for !stop.Load() {
				for i := range reqs {
					reqs[i] = Request{Op: OpGet, Key: core.Key(rng.Uint64N(n))}
				}
				if s.Do(reqs, res) != nil {
					return
				}
				for i, r := range res {
					if !r.OK {
						bad.Add(1)
					}
					check(reqs[i].Key, r.Value)
				}
				lo := core.Key(rng.Uint64N(n))
				s.RangeScan(lo, lo+32, check)
			}
		}(uint64(r + 1))
	}
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m rum.Meter
			for !stop.Load() {
				p := sh.cur.Load()
				if p == nil {
					return
				}
				for q := p; q != nil && (*q).Epoch() < (*p).Epoch()+2 && !stop.Load(); q = sh.cur.Load() {
					runtime.Gosched()
				}
				if !(*p).Retain() {
					refused.Add(1)
					continue
				}
				(*p).RangeScan(0, n, &m, check)
				(*p).Release()
			}
		}()
	}
	rng := rand.New(rand.NewPCG(5, 31))
	for gen := 1; gen <= minWrites || (gen <= maxWrites && refused.Load() < wantRefused); gen++ {
		k := core.Key(rng.Uint64N(n))
		if _, err := do1(s, OpUpdate, k, core.Value(k)|core.Value(gen)<<32); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d reads returned a missing key or a torn value", bad.Load())
	}
	if got := refused.Load(); got < wantRefused {
		t.Fatalf("Retain refused %d snapshots the shard had swapped out and released in %d writes, want %d",
			got, maxWrites, wantRefused)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSnapshotEpochsMonotonePerShard acquires snapshots repeatedly while
// writing and checks each shard's published epoch never goes backwards.
func TestSnapshotEpochsMonotonePerShard(t *testing.T) {
	const shards = 2
	s := mustNew(t, Config{Shards: shards, Snapshots: true, Build: buildMVCCBTree})
	last := make([]uint64, shards)
	for k := uint64(0); k < 400; k++ {
		if _, err := do1(s, OpInsert, k, k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		for i, sh := range s.shards {
			cs := sh.acquireSnap()
			if cs == nil {
				continue
			}
			if cs.Epoch() < last[i] {
				t.Fatalf("shard %d epoch went backwards: %d -> %d", i, last[i], cs.Epoch())
			}
			last[i] = cs.Epoch()
			cs.Release()
		}
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i, e := range last {
		if e == 0 {
			t.Fatalf("shard %d never published", i)
		}
	}
}

// TestSnapshotStaleness: with a relaxed staleness budget the server
// publishes less often; reads still see some published prefix and writes
// are never lost (verified after a Flush barrier, which republishes).
func TestSnapshotStaleness(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Snapshots: true, StalenessOps: 64, Build: buildMVCCBTree})
	for k := uint64(0); k < 300; k++ {
		if _, err := do1(s, OpInsert, k, k+7); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for k := uint64(0); k < 300; k++ {
		if r, _ := do1(s, OpGet, k, 0); !r.OK || r.Value != k+7 {
			t.Fatalf("Get(%d) after Flush = %d,%v; want %d,true", k, r.Value, r.OK, k+7)
		}
	}
	if _, err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func ExampleServer_snapshots() {
	s, _ := New(Config{Shards: 2, Snapshots: true, Build: func(int) *core.Instrumented {
		return methods.NewBTree(methods.Options{}, btree.Config{Versions: 2})
	}})
	reqs := make([]Request, 100)
	for k := range reqs {
		reqs[k] = Request{Op: OpInsert, Key: core.Key(k), Value: core.Value(k * k)}
	}
	_ = s.Do(reqs, make([]Result, len(reqs)))
	res := make([]Result, 1)
	_ = s.Do([]Request{{Op: OpGet, Key: 36}}, res) // pure read: served from a snapshot, no mailbox hop
	fmt.Println(res[0].Value, res[0].OK)
	_, ops := s.ReaderStats()
	fmt.Println(ops > 0)
	_, _ = s.Stop()
	// Output:
	// 1296 true
	// true
}
