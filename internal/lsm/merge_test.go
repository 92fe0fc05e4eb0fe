package lsm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// mergeOracle is the merge the tree used before mergeSorted: pour every
// source into a map oldest to newest, then sort. Kept as the reference the
// k-way merge is checked against.
func mergeOracle(sources [][]core.Record, dropTombs bool) []core.Record {
	latest := make(map[core.Key]core.Value)
	for _, src := range sources {
		for _, rec := range src {
			latest[rec.Key] = rec.Value
		}
	}
	out := make([]core.Record, 0, len(latest))
	for k, v := range latest {
		if dropTombs && v == Tombstone {
			continue
		}
		out = append(out, core.Record{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// randomSources draws k strictly ascending sources over a key space small
// enough that keys repeat across sources, with a share of tombstones and the
// occasional empty source.
func randomSources(rng *rand.Rand, k int) [][]core.Record {
	sources := make([][]core.Record, k)
	for i := range sources {
		if rng.Intn(6) == 0 {
			continue // empty source
		}
		n := 1 + rng.Intn(200)
		seen := make(map[core.Key]bool, n)
		for len(seen) < n {
			seen[core.Key(rng.Intn(400))] = true
		}
		src := make([]core.Record, 0, n)
		for key := range seen {
			v := core.Value(rng.Intn(1000))
			if rng.Intn(4) == 0 {
				v = Tombstone
			}
			src = append(src, core.Record{Key: key, Value: v})
		}
		core.SortRecords(src)
		sources[i] = src
	}
	return sources
}

// mergeInPlace merges sources in the layout Tree.apply uses: source 0 copied
// to the tail of one buffer sized to every source's records, the merge
// written from that buffer's head. It fails t unless the merge wrote into the
// buffer.
func mergeInPlace(t *testing.T, sources [][]core.Record, dropTombs bool) []core.Record {
	t.Helper()
	total := 0
	for _, src := range sources {
		total += len(src)
	}
	buf := make([]core.Record, total)
	gap := total - len(sources[0])
	copy(buf[gap:], sources[0])
	laid := append([][]core.Record{buf[gap:]}, sources[1:]...)
	got := mergeSorted(buf, laid, dropTombs)
	if len(got) > 0 && &got[0] != &buf[0] {
		t.Fatalf("merge left the buffer for a fresh one (total %d)", total)
	}
	return got
}

func TestMergeSortedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		sources := randomSources(rng, 1+rng.Intn(12))
		for _, dropTombs := range []bool{false, true} {
			got, want := mergeSorted(nil, sources, dropTombs), mergeOracle(sources, dropTombs)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d dropTombs=%v: merge differs from oracle\n got %v\nwant %v",
					trial, len(sources), dropTombs, got, want)
			}
			if inPlace := mergeInPlace(t, sources, dropTombs); !slices.Equal(inPlace, want) {
				t.Fatalf("trial %d k=%d dropTombs=%v: in-place merge differs from oracle\n got %v\nwant %v",
					trial, len(sources), dropTombs, inPlace, want)
			}
		}
	}
}

func TestMergeSortedEdges(t *testing.T) {
	if got := mergeSorted(nil, nil, false); len(got) != 0 {
		t.Fatalf("no sources merged to %v", got)
	}
	if got := mergeSorted(nil, [][]core.Record{nil, {}, nil}, true); len(got) != 0 {
		t.Fatalf("empty sources merged to %v", got)
	}
	// The same key in every source: the newest (last) wins, and a newest
	// tombstone shadows every older live version.
	sources := [][]core.Record{{{Key: 7, Value: 1}}, {{Key: 7, Value: 2}}, {{Key: 7, Value: Tombstone}}}
	if got := mergeSorted(nil, sources[:2], true); !slices.Equal(got, []core.Record{{Key: 7, Value: 2}}) {
		t.Fatalf("newest did not win: %v", got)
	}
	if got := mergeSorted(nil, sources, true); len(got) != 0 {
		t.Fatalf("tombstone did not shadow older versions: %v", got)
	}
	if got := mergeSorted(nil, sources, false); !slices.Equal(got, []core.Record{{Key: 7, Value: Tombstone}}) {
		t.Fatalf("tombstone not kept above the bottom: %v", got)
	}
}

// FuzzMergeSorted decodes the input into up to 12 sources (byte 0: source
// count; then per record a source selector, a key byte and a value byte, 0xFF
// meaning tombstone), sorts and dedups each, and checks the merge against the
// oracle under both tombstone policies, into a fresh destination and in
// place, in the layout a compaction uses.
func FuzzMergeSorted(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 1, 1, 2, 2, 1, 0xFF})
	f.Add([]byte{1})
	f.Add([]byte{12, 0, 0, 0, 11, 0, 0xFF, 5, 9, 9})
	// Three sources, the newest shadowing every key of the oldest: each of
	// the oldest's records is stepped over as the newer copy is written, so
	// the write index comes closest to the oldest source's read head.
	f.Add([]byte{3, 0, 10, 1, 0, 20, 1, 0, 30, 1, 1, 15, 2, 1, 25, 0xFF, 2, 10, 3, 2, 20, 0xFF, 2, 30, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		k := 1 + int(in[0])%12
		byKey := make([]map[core.Key]core.Value, k)
		for i := range byKey {
			byKey[i] = map[core.Key]core.Value{}
		}
		for in = in[1:]; len(in) >= 3; in = in[3:] {
			v := core.Value(in[2])
			if in[2] == 0xFF {
				v = Tombstone
			}
			byKey[int(in[0])%k][core.Key(in[1])] = v
		}
		sources := make([][]core.Record, k)
		for i, m := range byKey {
			for key, v := range m {
				sources[i] = append(sources[i], core.Record{Key: key, Value: v})
			}
			core.SortRecords(sources[i])
		}
		for _, dropTombs := range []bool{false, true} {
			want := mergeOracle(sources, dropTombs)
			if got := mergeSorted(nil, sources, dropTombs); !slices.Equal(got, want) {
				t.Fatalf("dropTombs=%v: got %v want %v (sources %v)", dropTombs, got, want, sources)
			}
			if got := mergeInPlace(t, sources, dropTombs); !slices.Equal(got, want) {
				t.Fatalf("dropTombs=%v: in place got %v want %v (sources %v)", dropTombs, got, want, sources)
			}
		}
	})
}

// scanModel applies the same writes to a tree and a map, so range scans can
// be checked against the map.
type scanModel struct {
	tr   *Tree
	live map[core.Key]core.Value
}

func (m *scanModel) put(k core.Key, v core.Value) {
	if _, ok := m.live[k]; ok {
		m.tr.Update(k, v)
	} else if err := m.tr.Insert(k, v); err != nil {
		panic(err)
	}
	m.live[k] = v
}

func (m *scanModel) del(k core.Key) {
	if _, ok := m.live[k]; ok {
		m.tr.Delete(k)
		delete(m.live, k)
	}
}

// churn overwrites and deletes inside a small key space so that runs at
// several levels overlap, the memtable shadows run versions, and tombstones
// sit above live versions.
func (m *scanModel) churn(rng *rand.Rand, ops int) {
	for i := 0; i < ops; i++ {
		k := core.Key(rng.Intn(600))
		if rng.Intn(4) == 0 {
			m.del(k)
		} else {
			m.put(k, core.Value(rng.Intn(1<<20)))
		}
	}
}

func (m *scanModel) want(lo, hi core.Key) []core.Record {
	var out []core.Record
	for k, v := range m.live {
		if k >= lo && k <= hi {
			out = append(out, core.Record{Key: k, Value: v})
		}
	}
	core.SortRecords(out)
	return out
}

func collect(scan func(emit func(core.Key, core.Value) bool) int) ([]core.Record, int) {
	var got []core.Record
	n := scan(func(k core.Key, v core.Value) bool {
		got = append(got, core.Record{Key: k, Value: v})
		return true
	})
	return got, n
}

// scanOracle is the scan the tree used before mergeSorted: pour every run of
// the directory, deepest level first, then the memtable into a map, drop the
// tombstones, sort, and cut to [lo, hi].
func scanOracle(t *testing.T, tr *Tree, levels [][]*run, mem []core.Record, lo, hi core.Key) []core.Record {
	t.Helper()
	var sources [][]core.Record
	for i := len(levels) - 1; i >= 0; i-- {
		for _, r := range levels[i] {
			recs, err := tr.readRun(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, recs)
		}
	}
	all := mergeOracle(append(sources, mem), true)
	return slices.DeleteFunc(all, func(r core.Record) bool { return r.Key < lo || r.Key > hi })
}

func memRecords(tr *Tree) []core.Record {
	var mem []core.Record
	tr.mem.Ascend(0, func(k core.Key, v core.Value) bool {
		mem = append(mem, core.Record{Key: k, Value: v})
		return true
	})
	return mem
}

var (
	scanRanges = [][2]core.Key{{0, ^core.Key(0)}, {0, 0}, {100, 100}, {37, 412}, {590, 5000}, {700, 800}, {300, 200}}
	// Scans are checked against the map-and-sort oracle over the tree's own
	// runs and against the logical model, under both policies.
	scanConfigs = []Config{
		{MemtableRecords: 32, SizeRatio: 3},
		{MemtableRecords: 32, SizeRatio: 4, Tiering: true, BloomBitsPerKey: 8},
	}
)

func TestRangeScanMatchesMapOracle(t *testing.T) {
	for _, cfg := range scanConfigs {
		tr := newTestTree(t, cfg)
		m := &scanModel{tr: tr, live: map[core.Key]core.Value{}}
		rng := rand.New(rand.NewSource(2))
		layered := 0 // rounds scanned with several runs under a non-empty memtable
		for round := 0; round < 8; round++ {
			m.churn(rng, 517)
			if tr.Runs() >= 2 && tr.mem.Len() > 0 {
				layered++
			}
			for _, r := range scanRanges {
				got, n := collect(func(emit func(core.Key, core.Value) bool) int { return tr.RangeScan(r[0], r[1], emit) })
				want := scanOracle(t, tr, tr.levels, memRecords(tr), r[0], r[1])
				if !slices.Equal(got, want) || n != len(want) {
					t.Fatalf("%s round %d scan [%d,%d]: emitted %d\n got %v\nwant %v", tr.Name(), round, r[0], r[1], n, got, want)
				}
				if model := m.want(r[0], r[1]); !slices.Equal(got, model) {
					t.Fatalf("%s round %d scan [%d,%d] differs from the model\n got %v\nwant %v", tr.Name(), round, r[0], r[1], got, model)
				}
			}
		}
		if layered < 4 {
			t.Fatalf("%s: only %d of 8 rounds scanned overlapping runs under a memtable", tr.Name(), layered)
		}
		// A scan that stops early is offered exactly the records it took.
		taken := 0
		if n := tr.RangeScan(0, ^core.Key(0), func(core.Key, core.Value) bool { taken++; return taken < 5 }); n != 5 || taken != 5 {
			t.Fatalf("%s: early stop emitted %d, callback saw %d, want 5", tr.Name(), n, taken)
		}
	}
}

func TestSnapshotRangeScanMatchesMapOracle(t *testing.T) {
	for _, cfg := range scanConfigs {
		cfg.Versions = 2
		tr := newTestTree(t, cfg)
		m := &scanModel{tr: tr, live: map[core.Key]core.Value{}}
		rng := rand.New(rand.NewSource(3))
		layered := 0
		for round := 0; round < 8; round++ {
			m.churn(rng, 517)
			if err := tr.Publish(); err != nil {
				t.Fatal(err)
			}
			snap := tr.Acquire().(*Snapshot)
			frozen := &scanModel{live: make(map[core.Key]core.Value, len(m.live))}
			for k, v := range m.live {
				frozen.live[k] = v
			}
			if countRuns(snap.State.levels) >= 2 && len(snap.State.mem) > 0 {
				layered++
			}
			// Writes after the publish must not show through the snapshot.
			m.churn(rng, 200)
			var meter rum.Meter
			for _, r := range scanRanges {
				got, n := collect(func(emit func(core.Key, core.Value) bool) int {
					return snap.RangeScan(r[0], r[1], &meter, emit)
				})
				want := scanOracle(t, tr, snap.State.levels, snap.State.mem, r[0], r[1])
				if !slices.Equal(got, want) || n != len(want) {
					t.Fatalf("%s round %d snapshot scan [%d,%d]: emitted %d\n got %v\nwant %v", tr.Name(), round, r[0], r[1], n, got, want)
				}
				if model := frozen.want(r[0], r[1]); !slices.Equal(got, model) {
					t.Fatalf("%s round %d snapshot scan [%d,%d] differs from the model\n got %v\nwant %v", tr.Name(), round, r[0], r[1], got, model)
				}
			}
			snap.Release()
		}
		if layered < 4 {
			t.Fatalf("%s: only %d of 8 rounds scanned overlapping runs under a frozen memtable", tr.Name(), layered)
		}
	}
}

// TestRangeScanFetchOrder pins the I/O contract the merge kernel must not
// disturb: a scan fetches each overlapping run's pages in run order, deepest
// level first, whatever the merge then does with the records.
func TestRangeScanFetchOrder(t *testing.T) {
	tr := newTestTree(t, Config{MemtableRecords: 32, SizeRatio: 3})
	m := &scanModel{tr: tr, live: map[core.Key]core.Value{}}
	m.churn(rand.New(rand.NewSource(4)), 2000)
	tr.Pool().DropAll()

	var want []uint32
	for i := len(tr.levels) - 1; i >= 0; i-- {
		for _, r := range tr.levels[i] {
			for _, pid := range r.pages {
				want = append(want, uint32(pid))
			}
		}
	}
	rec := &readOrder{}
	tr.Pool().Device().SetHook(rec)
	tr.RangeScan(0, ^core.Key(0), func(core.Key, core.Value) bool { return false })
	tr.Pool().Device().SetHook(nil)
	if len(want) > tr.Pool().Capacity() {
		t.Fatalf("test wants the whole tree to fit the pool: %d pages", len(want))
	}
	if !slices.Equal(rec.ids, want) {
		t.Fatalf("device reads out of order:\n got %v\nwant %v", rec.ids, want)
	}
}

// readOrder records the pages the device reads, in order.
type readOrder struct{ ids []uint32 }

func (r *readOrder) StorageEvent(ev storage.Event, id storage.PageID, _ rum.Class, _ uint64) {
	if ev == storage.EvRead {
		r.ids = append(r.ids, uint32(id))
	}
}

func (r *readOrder) StorageBatch(bool, int, int, uint64) {}

// BenchmarkCompactionSpill measures the step that dominates a write-heavy
// leveled tree's stalls: an over-capacity L1 run (T=4, 16 memtables' worth
// plus one record) merges into an L2 run three times its size, interleaved
// key for key, on the out-of-cache multi-queue device the serving benchmark
// uses. Set-up (building both input runs) is off the clock.
func BenchmarkCompactionSpill(b *testing.B) {
	const memtable = 1024
	l1 := make([]core.Record, 16*memtable+1)
	for k := range l1 {
		l1[k] = core.Record{Key: core.Key(4*k + 1), Value: 2}
	}
	l2 := make([]core.Record, 48*memtable)
	for k := range l2 {
		l2[k] = core.Record{Key: core.Key(2 * k), Value: 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool := storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 256)
		tr := New(pool, Config{MemtableRecords: memtable, SizeRatio: 4})
		upper, err := tr.buildRun(l1)
		if err != nil {
			b.Fatal(err)
		}
		lower, err := tr.buildRun(l2)
		if err != nil {
			b.Fatal(err)
		}
		tr.levels = [][]*run{nil, {upper}, {lower}}
		b.StartTimer()
		st, ok := tr.policy().Next(1, tr)
		if !ok {
			b.Fatal("planner has no step for an over-capacity L1")
		}
		tr.apply(st)
		if len(tr.levels[1]) != 0 || tr.levels[2][0].count != len(l1)+len(l2) {
			b.Fatalf("spill left %d L1 runs and %d L2 records", len(tr.levels[1]), tr.levels[2][0].count)
		}
	}
}
