package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// TestSearchGroupMatchesSingleKey holds the group kernel to the single-key
// kernels over every node count a 512-byte page allows: for leaves against
// leafSearch, for internal nodes against intSearch and, through child,
// against route. Each group mixes nodes of different counts, so its searches
// finish on different steps, and probes every stored key, both neighbours of
// it and the two ends of the key space.
func TestSearchGroupMatchesSingleKey(t *testing.T) {
	const pageSize = 512
	for _, leaf := range []bool{true, false} {
		capacity := (pageSize - headerSize) / intEntrySize
		if leaf {
			capacity = (pageSize - headerSize) / leafEntrySize
		}
		// nodes[c] holds c entries with keys 10, 20, …; an internal node's
		// children are numbered so that every slot routes somewhere distinct.
		nodes := make([]node, capacity+1)
		for c := range nodes {
			n := node{make([]byte, pageSize)}
			n.setKind(kindInternal)
			n.setLink(1000)
			if leaf {
				n.setKind(kindLeaf)
			}
			for j := 0; j < c; j++ {
				if leaf {
					n.setLeafEntry(j, uint64(j+1)*10, uint64(j))
				} else {
					n.setIntEntry(j, uint64(j+1)*10, 1001+storage.PageID(j))
				}
			}
			n.setCount(c)
			nodes[c] = n
		}
		type pair struct {
			n node
			k core.Key
		}
		var pairs []pair
		for c, n := range nodes {
			probes := []core.Key{0, 1, math.MaxUint64 - 1, math.MaxUint64}
			for j := 0; j < c; j++ {
				k := uint64(j+1) * 10
				probes = append(probes, k-1, k, k+1)
			}
			for _, k := range probes {
				pairs = append(pairs, pair{n, k})
			}
		}
		rand.New(rand.NewSource(5)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, width := range []int{1, 2, 15, groupWidth} {
			for at := 0; at < len(pairs); at += width {
				group := pairs[at:min(at+width, len(pairs))]
				var (
					gn   [groupWidth]node
					pos  [groupWidth]int
					keys []core.Key
				)
				for i, p := range group {
					gn[i], keys = p.n, append(keys, p.k)
				}
				searchGroup(&gn, keys, &pos, leaf)
				for i, p := range group {
					want := p.n.intSearch(p.k)
					if leaf {
						want = p.n.leafSearch(p.k)
					} else if got, route := p.n.child(pos[i]), p.n.route(p.k); got != route {
						t.Fatalf("internal node of %d: key %d routes to %d through the group, %d alone", p.n.count(), p.k, got, route)
					}
					if pos[i] != want {
						t.Fatalf("leaf=%v node of %d, key %d, width %d: group position %d, single-key %d",
							leaf, p.n.count(), p.k, width, pos[i], want)
					}
				}
			}
		}
	}
}

// checkGetBatch reads keys through GetBatch and through a loop of Gets and
// requires the same values, the same oks, a zero value on every miss even
// when the result buffers arrive dirty, and equal meters.
func checkGetBatch(t *testing.T, snap core.Snapshot, keys []core.Key) {
	t.Helper()
	vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
	for i := range vals {
		vals[i], oks[i] = 0xdead, i%2 == 0 // a reused buffer's leftovers
	}
	var batch, loop rum.Meter
	snap.GetBatch(keys, vals, oks, &batch)
	for i, k := range keys {
		v, ok := snap.Get(k, &loop)
		if vals[i] != v || oks[i] != ok {
			t.Fatalf("key %d (slot %d of %d): GetBatch %d,%v; Get %d,%v", k, i, len(keys), vals[i], oks[i], v, ok)
		}
		if !ok && vals[i] != 0 {
			t.Fatalf("key %d missed but its value slot holds %d", k, vals[i])
		}
	}
	if batch != loop {
		t.Fatalf("%d keys: GetBatch charged %+v, the Gets %+v", len(keys), batch, loop)
	}
}

// groupSizes straddle groupWidth: a lone key, one short of a group, exactly
// one, one over, and several groups.
var groupSizes = []int{1, 15, 16, 17, 64}

// TestSnapshotGetBatchMatchesGet is the contract of core.Snapshot.GetBatch on
// the btree — "len(keys) Gets", to the byte of the meter — over every tree
// shape the descent distinguishes.
func TestSnapshotGetBatchMatchesGet(t *testing.T) {
	// Keys are multiples of 3 from 30 up, so there are absent keys between
	// any two, below the smallest and above the largest.
	shapes := []struct {
		name   string
		n      int
		height int
		churn  bool
	}{
		{"empty", 0, 1, false},
		{"single leaf", 20, 1, false},
		{"height 2", 400, 2, false},
		{"height 3", 3000, 3, false},
		{"height 3 after copy-on-write churn", 3000, 3, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tr := newTestTree(t, 512, 64, Config{Versions: 3})
			for i := 0; i < sh.n; i++ {
				if err := tr.Insert(uint64(30+3*i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Publish(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(sh.n)))
			if sh.churn {
				// Updates copy paths, deletes empty leaves out, inserts split
				// them; every round is published, so the snapshot read below
				// crosses pages born in several epochs.
				for round := 0; round < 6; round++ {
					for i := 0; i < 200; i++ {
						k := uint64(30 + 3*rng.Intn(sh.n))
						switch rng.Intn(3) {
						case 0:
							tr.Update(k, k+uint64(round))
						case 1:
							tr.Delete(k)
						default:
							_ = tr.Insert(k+1, k) // ErrKeyExists on a repeat is fine
						}
					}
					if err := tr.Publish(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tr.Height() != sh.height {
				t.Fatalf("tree height %d, the case wants %d", tr.Height(), sh.height)
			}
			// The bare snapshot charges physical bytes; the one the serving
			// layer holds adds the logical payload and the op count.
			snap, wrapped := tr.Acquire(), core.Instrument(tr).Acquire()
			defer snap.Release()
			defer wrapped.Release()
			// The live tree moves on; the snapshot must not notice.
			for i := 0; i < sh.n; i += 7 {
				tr.Update(uint64(30+3*i), 1<<40)
			}

			top := uint64(30 + 3*sh.n)
			for _, size := range groupSizes {
				for trial := 0; trial < 8; trial++ {
					keys := make([]core.Key, size)
					for i := range keys {
						switch rng.Intn(8) {
						case 0:
							keys[i] = uint64(rng.Intn(30)) // below the minimum
						case 1:
							keys[i] = top + uint64(rng.Intn(100)) // above the maximum
						case 2:
							keys[i] = math.MaxUint64
						case 3:
							if i > 0 {
								keys[i] = keys[rng.Intn(i)] // a duplicate inside the group
								break
							}
							fallthrough
						default:
							keys[i] = 30 + uint64(rng.Intn(3*sh.n+1)) // stored or in a gap
						}
					}
					checkGetBatch(t, snap, keys)
					checkGetBatch(t, wrapped, keys)
				}
			}
			checkGetBatch(t, snap, nil)
			checkGetBatch(t, wrapped, nil)
		})
	}
}

// TestSnapshotGetBatchAllocs pins the group read path at zero allocations:
// its per-group state lives on GetBatch's stack.
func TestSnapshotGetBatchAllocs(t *testing.T) {
	tr := newMVCCTree(t, 2)
	for k := uint64(0); k < 5000; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Publish(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Acquire()
	defer snap.Release()
	var (
		m    rum.Meter
		keys [40]core.Key
		vals [40]core.Value
		oks  [40]bool
	)
	for i := range keys {
		keys[i] = uint64(i) * 131 // the last one is past the end
	}
	allocs := testing.AllocsPerRun(1000, func() {
		snap.GetBatch(keys[:], vals[:], oks[:], &m)
		if !oks[0] || oks[39] {
			t.Fatal("wrong outcome")
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot GetBatch allocates %v per call, want 0", allocs)
	}
}

// FuzzSnapshotGetBatch builds a tree from an op stream beside a map oracle,
// publishing where the stream says so, keeps mutating the live tree past the
// last publish, and then reads key groups picked by a second byte stream:
// GetBatch must agree with the oracle as of the publish and with Get, meter
// included.
func FuzzSnapshotGetBatch(f *testing.F) {
	f.Add([]byte{}, []byte{1, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 9, 3, 0, 0, 2, 0, 5}, []byte{3, 0, 5, 0, 9, 0, 7})
	long := make([]byte, 0, 3*1500)
	for i := 0; i < 1500; i++ { // three levels on 512-byte pages, published twice
		op := byte(0)
		if i%600 == 599 {
			op = 3
		}
		long = append(long, op, byte(i>>8), byte(i))
	}
	f.Add(long, []byte{63, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34})
	f.Fuzz(func(t *testing.T, ops, picks []byte) {
		tr := newTestTree(t, 512, 32, Config{Versions: 2})
		live := map[core.Key]core.Value{}
		var (
			snap   core.Snapshot
			frozen map[core.Key]core.Value
		)
		publish := func() {
			if snap != nil {
				snap.Release()
			}
			if err := tr.Publish(); err != nil {
				t.Fatal(err)
			}
			snap = tr.Acquire()
			frozen = make(map[core.Key]core.Value, len(live))
			for k, v := range live {
				frozen[k] = v
			}
		}
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			k := core.Key(binary.BigEndian.Uint16(ops[1:3]))%4096*2 + 2
			switch ops[0] % 4 {
			case 0:
				if tr.Insert(k, core.Value(step)) == nil {
					live[k] = core.Value(step)
				}
			case 1:
				if tr.Update(k, core.Value(step)) {
					live[k] = core.Value(step)
				}
			case 2:
				if tr.Delete(k) {
					delete(live, k)
				}
			default:
				publish()
			}
		}
		if snap == nil {
			publish() // a stream that never published: the snapshot is the final state
		}
		defer snap.Release()

		for len(picks) > 0 {
			size := 1 + int(picks[0])%64
			picks = picks[1:]
			keys := make([]core.Key, 0, size)
			for ; len(keys) < size && len(picks) > 0; picks = picks[1:] {
				// Even keys are the ones ops can store; odd ones, 0 and those
				// past 8192 never are.
				k := core.Key(picks[0]) * 37 % 8400
				if picks[0] == 255 {
					k = math.MaxUint64
				}
				keys = append(keys, k)
			}
			checkGetBatch(t, snap, keys)
			vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
			var m rum.Meter
			snap.GetBatch(keys, vals, oks, &m)
			for i, k := range keys {
				if want, ok := frozen[k]; oks[i] != ok || vals[i] != want {
					t.Fatalf("key %d: GetBatch %d,%v; the oracle at the publish %d,%v", k, vals[i], oks[i], want, ok)
				}
			}
		}
	})
}

// storageEvent is one pool or device event, as much of it as a twin compares.
type storageEvent struct {
	ev storage.Event
	id storage.PageID
}

type eventLog []storageEvent

func (l *eventLog) StorageEvent(ev storage.Event, id storage.PageID, _ rum.Class, _ uint64) {
	*l = append(*l, storageEvent{ev, id})
}

// twin is a tree on its own device and pool, behind core.Instrument, with
// every pool and device event logged.
type twin struct {
	tr  *Tree
	w   *core.Instrumented
	log eventLog
}

func newTwin(t testing.TB, medium storage.Medium, pageSize, poolPages int, cfg Config) *twin {
	t.Helper()
	tw := &twin{}
	dev := storage.NewDevice(pageSize, medium, nil)
	pool := storage.NewBufferPool(dev, poolPages)
	dev.SetHook(&tw.log)
	pool.SetHook(&tw.log)
	tr, err := New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw.tr, tw.w = tr, core.Instrument(tr)
	return tw
}

// twinPair drives two identically built twins: batched reads the group path
// (GetBatch through the wrapper), loop the same reads as Gets. checked is how
// much of the two event logs has already been compared.
type twinPair struct {
	batched, loop *twin
	checked       int
}

// mutate applies one write to both twins and requires the same outcome.
func (p *twinPair) mutate(t testing.TB, op byte, k core.Key, v core.Value) {
	t.Helper()
	var a, b bool
	switch op % 3 {
	case 0:
		a, b = p.batched.w.Insert(k, v) == nil, p.loop.w.Insert(k, v) == nil
	case 1:
		a, b = p.batched.w.Update(k, v), p.loop.w.Update(k, v)
	default:
		a, b = p.batched.w.Delete(k), p.loop.w.Delete(k)
	}
	if a != b {
		t.Fatalf("op %d on key %d: %v on one twin, %v on the other", op%3, k, a, b)
	}
}

// read serves keys as one GetBatch on one twin and as a loop of Gets on the
// other and requires the same values and oks (0 on a miss, whatever the
// buffers held). On a pool that does not batch I/O it then requires the same
// pool stats, meters and event sequences; on a batching one, where the group
// path reads a level's missing pages as one wave, its miss ledger. It
// returns the values and oks.
func (p *twinPair) read(t testing.TB, keys []core.Key) ([]core.Value, []bool) {
	t.Helper()
	vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
	for i := range vals {
		vals[i], oks[i] = 0xdead, i%2 == 0 // a reused buffer's leftovers
	}
	p.batched.w.GetBatch(keys, vals, oks)
	for i, k := range keys {
		v, ok := p.loop.w.Get(k)
		if vals[i] != v || oks[i] != ok {
			t.Fatalf("key %d (slot %d of %d): GetBatch %d,%v; Get %d,%v", k, i, len(keys), vals[i], oks[i], v, ok)
		}
	}
	a, b := p.batched.tr, p.loop.tr
	if pool := a.Pool(); pool.IOBatch() > 1 {
		// Every page read from the device, prefetched by a wave or demanded
		// by a Fetch, is one miss.
		if ms, reads := pool.Stats().Misses, pool.Device().Stats().PageReads; ms != reads {
			t.Fatalf("%d keys: GetBatch's pool counts %d misses for %d device reads", len(keys), ms, reads)
		}
		return vals, oks
	}
	if a.Pool().Stats() != b.Pool().Stats() {
		t.Fatalf("%d keys: GetBatch left pool stats %+v, the Gets %+v", len(keys), a.Pool().Stats(), b.Pool().Stats())
	}
	if *a.Meter() != *b.Meter() {
		t.Fatalf("%d keys: GetBatch left the meter at %+v, the Gets at %+v", len(keys), *a.Meter(), *b.Meter())
	}
	la, lb := p.batched.log, p.loop.log
	if len(la) != len(lb) {
		t.Fatalf("%d keys: %d storage events under GetBatch, %d under the Gets", len(keys), len(la), len(lb))
	}
	for i := p.checked; i < len(la); i++ {
		if la[i] != lb[i] {
			t.Fatalf("%d keys: storage event %d is %v on page %d under GetBatch, %v on page %d under the Gets",
				len(keys), i, la[i].ev, la[i].id, lb[i].ev, lb[i].id)
		}
	}
	p.checked = len(la)
	return vals, oks
}

// deviceLedgers returns the batched and the loop twin's device stats.
func (p *twinPair) deviceLedgers() (storage.DeviceStats, storage.DeviceStats) {
	return p.batched.tr.Pool().Device().Stats(), p.loop.tr.Pool().Device().Stats()
}

// TestTreeGetBatchMatchesGets holds the live group path to its definition:
// on twin trees, one GetBatch and the loop of Gets must return the same
// values. The pools run from 4 frames, fewer than one group's leaves, to a
// resident pool; inserts, updates, deletes and (with Versions) publishes run
// between the batches, so the reads meet dirty frames. 512-byte pages give
// height 3 on the SSD (per-page I/O), where the two paths must also leave the
// same pool stats, device meter and sequence of pool and device events (kind
// and page, in order). 4096-byte pages give height 2 on the MQSSD, where the
// group path reads each level's missing pages as one Readahead wave: there
// the batched twin's misses must equal its device reads after every batch,
// its device ledger must equal the loop's after every batch from 64 frames
// up, and its cumulative cost must end no higher than the loop's — below 64
// frames, where the tree does not fit, lower. There a wave's evictions can
// push out a page the replay reads again, so the batched twin may read a few
// pages more for fewer cost units (DESIGN §9).
func TestTreeGetBatchMatchesGets(t *testing.T) {
	for _, pageSize := range []int{512, 4096} {
		medium, n := storage.SSD, 8000
		if pageSize == 4096 {
			medium, n = storage.MQSSD, 6000
		}
		for _, poolPages := range []int{4, 8, 24, 64, 256, 1 << 12} {
			for _, versions := range []int{0, 2} {
				cfg := Config{Versions: versions}
				name := fmt.Sprintf("page=%d/pool=%d/versions=%d", pageSize, poolPages, versions)
				t.Run(name, func(t *testing.T) {
					p := &twinPair{
						batched: newTwin(t, medium, pageSize, poolPages, cfg),
						loop:    newTwin(t, medium, pageSize, poolPages, cfg),
					}
					rng := rand.New(rand.NewSource(int64(pageSize + poolPages + versions)))
					// Keys are multiples of 3 in random order: half-full
					// leaves, and absent keys between any two.
					for _, i := range rng.Perm(n) {
						p.mutate(t, 0, core.Key(3*i+3), core.Value(i))
					}
					if want := map[int]int{512: 3, 4096: 2}[pageSize]; p.batched.tr.Height() != want {
						t.Fatalf("height %d, the case wants %d", p.batched.tr.Height(), want)
					}
					top := core.Key(3*n + 3)
					for round := 0; round < 60; round++ {
						for j := 0; j < 20; j++ {
							p.mutate(t, byte(rng.Intn(3)), core.Key(1+rng.Intn(int(top))), core.Value(round))
						}
						if versions > 0 && round%5 == 4 {
							if p.batched.tr.Publish() != nil || p.loop.tr.Publish() != nil {
								t.Fatal("publish failed")
							}
						}
						keys := make([]core.Key, 1+(round%40))
						for i := range keys {
							switch rng.Intn(8) {
							case 0:
								keys[i] = math.MaxUint64
							case 1:
								if i > 0 {
									keys[i] = keys[rng.Intn(i)] // a duplicate inside the batch
									break
								}
								fallthrough
							default:
								keys[i] = core.Key(rng.Intn(int(top) + 10))
							}
						}
						p.read(t, keys)
						if da, dl := p.deviceLedgers(); medium == storage.MQSSD && poolPages >= 64 &&
							(da.PageReads != dl.PageReads || da.PageWrites != dl.PageWrites || da.CostUnits != dl.CostUnits) {
							t.Fatalf("%d keys: GetBatch's device read %d, wrote %d, cost %d; the Gets' %d, %d, %d",
								len(keys), da.PageReads, da.PageWrites, da.CostUnits, dl.PageReads, dl.PageWrites, dl.CostUnits)
						}
					}
					p.read(t, nil)
					if da, dl := p.deviceLedgers(); medium == storage.MQSSD {
						t.Logf("device reads %d against the Gets' %d, cost units %d against %d, pool hits %d against %d", da.PageReads, dl.PageReads,
							da.CostUnits, dl.CostUnits, p.batched.tr.Pool().Stats().Hits, p.loop.tr.Pool().Stats().Hits)
						if da.CostUnits > dl.CostUnits || poolPages < 64 && da.CostUnits == dl.CostUnits {
							t.Fatalf("GetBatch cost %d cost units, the Gets %d: on an evicting pool the waves must save some", da.CostUnits, dl.CostUnits)
						}
					}
					st, pages := p.batched.tr.Stats(), p.batched.tr.Pool().Device().LivePages()
					if poolPages < pages && p.batched.tr.Pool().Stats().Evictions == 0 {
						t.Fatalf("a %d-frame pool under %d pages (%d leaves) never evicted", poolPages, pages, st.LeafPages)
					}
				})
			}
		}
	}
}

// FuzzTreeGetBatch runs an op stream on twin trees beside a map oracle; op
// kind 3 reads a batch whose keys a second byte stream picks, one twin
// through GetBatch and the other through Gets, which must agree with each
// other (twinPair.read: event for event on the SSD, by the miss ledger on the
// MQSSD) and with the oracle. The first pick byte sizes the pool, 4 to 67
// frames, turns on Versions and picks the medium.
func FuzzTreeGetBatch(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 9, 3, 0, 0, 2, 0, 5, 3, 0, 0}, []byte{20, 3, 0, 5, 0, 9, 0, 7})
	long := make([]byte, 0, 3*1600)
	for i := 0; i < 1600; i++ { // three levels on 512-byte pages, read from now and then
		op := byte(0)
		if i%400 == 399 {
			op = 3
		}
		long = append(long, op, byte(i>>8), byte(i))
	}
	f.Add(long, []byte{20, 34, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34})
	f.Add(long, []byte{64 + 60, 63, 200, 13, 1, 255, 77, 140, 33, 2, 9, 99})
	f.Add(long, []byte{128 + 20, 34, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34})
	f.Add(long, []byte{128 + 64 + 4, 63, 200, 13, 1, 255, 77, 140, 33, 2, 9, 99, 2, 5, 5, 1})
	f.Fuzz(func(t *testing.T, ops, picks []byte) {
		if len(picks) == 0 {
			return
		}
		cfg := Config{}
		if picks[0]&64 != 0 {
			cfg.Versions = 2
		}
		medium := storage.SSD
		if picks[0]&128 != 0 {
			medium = storage.MQSSD
		}
		poolPages := 4 + int(picks[0])%64
		picks = picks[1:]
		p := &twinPair{
			batched: newTwin(t, medium, 512, poolPages, cfg),
			loop:    newTwin(t, medium, 512, poolPages, cfg),
		}
		live := map[core.Key]core.Value{}
		readBatch := func() {
			if len(picks) == 0 {
				return
			}
			size := 1 + int(picks[0])%64
			picks = picks[1:]
			keys := make([]core.Key, 0, size)
			for ; len(keys) < size && len(picks) > 0; picks = picks[1:] {
				// Even keys are the ones ops can store; odd ones, 0 and
				// those past 8192 never are.
				k := core.Key(picks[0]) * 37 % 8400
				if picks[0] == 255 {
					k = math.MaxUint64
				}
				keys = append(keys, k)
			}
			vals, oks := p.read(t, keys)
			for i, k := range keys {
				if want, ok := live[k]; oks[i] != ok || vals[i] != want {
					t.Fatalf("key %d: GetBatch %d,%v; the oracle %d,%v", k, vals[i], oks[i], want, ok)
				}
			}
		}
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			k := core.Key(binary.BigEndian.Uint16(ops[1:3]))%4096*2 + 2
			switch op := ops[0] % 4; op {
			case 3:
				readBatch()
			default:
				p.mutate(t, op, k, core.Value(step))
				switch op {
				case 0:
					if _, ok := live[k]; !ok {
						live[k] = core.Value(step)
					}
				case 1:
					if _, ok := live[k]; ok {
						live[k] = core.Value(step)
					}
				default:
					delete(live, k)
				}
			}
			if cfg.Versions > 0 && step%97 == 96 {
				if p.batched.tr.Publish() != nil || p.loop.tr.Publish() != nil {
					t.Fatal("publish failed")
				}
			}
		}
		for len(picks) > 0 {
			readBatch()
		}
	})
}

// BenchmarkTreeGetBatch reads a resident 131 072-key live tree (4 KiB pages,
// height 3), the keys scattered as benchKey scatters them: the loop of Gets,
// then GetBatch at b keys a call. Reported per key; 0 allocs/op throughout.
// The mqssd cases read uniformly drawn keys from a tree of 262 144 keys
// (1 028 leaves) through a 256-frame pool on the multi-queue SSD, where a
// group's missing pages go to the device as one wave: they also report the
// device's cost units and page reads per key. The mqssd/prefetch-read50
// cases serve 32-op messages of half gets, half writes (inserts, updates,
// deletes) to a freshly loaded tree of as many keys, as a shard does: each
// run of gets is one GetBatch, each write a call of its own, and with the
// hint on, the message's keys go to Prefetch first. Reported per op beside
// ns and allocs: cost units, page reads and prefetched pages evicted unread.
func BenchmarkTreeGetBatch(b *testing.B) {
	const n = 131072
	tr := bulkTree(b, storage.RAM, n, 4096)
	key := func(i int) core.Key { return core.Key(i) * 0x9E3779B97F4A7C15 >> 32 % n }
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Get(key(i)); !ok {
				b.Fatal("lost key")
			}
		}
	})
	for _, batch := range []int{1, 2, 3, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			keys, vals, oks := make([]core.Key, batch), make([]core.Value, batch), make([]bool, batch)
			b.ReportAllocs()
			for i := 0; i < b.N; i += batch {
				for j := range keys {
					keys[j] = key(i + j)
				}
				tr.GetBatch(keys, vals, oks)
				if !oks[batch-1] {
					b.Fatal("lost key")
				}
			}
		})
	}
	b.Run("mqssd", func(b *testing.B) {
		// The scattered keys sweep the leaves nearly in a cycle, which no
		// LRU pool smaller than the tree ever hits; these draw uniformly.
		const big = 2 * n
		tr := bulkTree(b, storage.MQSSD, big, 256)
		dev := tr.Pool().Device()
		drawn := make([]core.Key, 1<<16)
		rng := rand.New(rand.NewSource(1))
		for i := range drawn {
			drawn[i] = core.Key(rng.Intn(big))
		}
		key := func(i int) core.Key { return drawn[i&(len(drawn)-1)] }
		report := func(b *testing.B, before storage.DeviceStats) {
			after := dev.Stats()
			b.ReportMetric(float64(after.CostUnits-before.CostUnits)/float64(b.N), "cost/op")
			b.ReportMetric(float64(after.PageReads-before.PageReads)/float64(b.N), "reads/op")
		}
		b.Run("loop", func(b *testing.B) {
			before := dev.Stats()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Get(key(i)); !ok {
					b.Fatal("lost key")
				}
			}
			report(b, before)
		})
		for _, batch := range []int{2, 4, 16} {
			b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
				keys, vals, oks := make([]core.Key, batch), make([]core.Value, batch), make([]bool, batch)
				before := dev.Stats()
				b.ReportAllocs()
				for i := 0; i < b.N; i += batch {
					for j := range keys {
						keys[j] = key(i + j)
					}
					tr.GetBatch(keys, vals, oks)
					if !oks[batch-1] {
						b.Fatal("lost key")
					}
				}
				report(b, before)
			})
		}
		for _, hint := range []string{"off", "on"} {
			b.Run("prefetch-read50/"+hint, func(b *testing.B) {
				benchMessages(b, big, hint == "on")
			})
		}
	})
}

// benchMessages serves b.N ops as 32-op read50 messages to a tree of 2n
// slots on the multi-queue SSD through 256 frames, whose even keys are
// stored: a get or an update reads a stored or a missing key alike, an
// insert adds an odd key and a delete removes an even one.
func benchMessages(b *testing.B, n int, prefetch bool) {
	const msgOps = 32
	tr, err := New(storage.NewBufferPool(storage.NewDevice(4096, storage.MQSSD, nil), 256), Config{})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(2 * i), Value: core.Value(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		b.Fatal(err)
	}
	// op 0 is a get; 1, 2 and 3 an insert, an update and a delete, drawn
	// in read50's shares (0.50, 0.20, 0.15, 0.15).
	rng := rand.New(rand.NewSource(1))
	keys, kinds := make([]core.Key, 1<<16), make([]byte, 1<<16)
	for i := range keys {
		keys[i] = core.Key(rng.Intn(2 * n))
		switch r := rng.Intn(20); {
		case r < 10:
		case r < 14:
			kinds[i], keys[i] = 1, keys[i]|1
		case r < 17:
			kinds[i] = 2
		default:
			kinds[i], keys[i] = 3, keys[i]&^1
		}
	}
	vals, oks := make([]core.Value, msgOps), make([]bool, msgOps)
	pool, dev := tr.Pool(), tr.Pool().Device()
	dev.ResetStats()
	unused := pool.Stats().PrefetchUnused
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += msgOps {
		at := i & (len(keys) - 1)
		msg, kind := keys[at:at+msgOps], kinds[at:at+msgOps]
		if prefetch {
			tr.Prefetch(msg)
		}
		for j := 0; j < msgOps; {
			if kind[j] == 0 {
				end := j + 1
				for end < msgOps && kind[end] == 0 {
					end++
				}
				tr.GetBatch(msg[j:end], vals[:end-j], oks[:end-j])
				j = end
				continue
			}
			switch kind[j] {
			case 1:
				_ = tr.Insert(msg[j], core.Value(i)) // ErrKeyExists on a repeat
			case 2:
				tr.Update(msg[j], core.Value(i))
			default:
				tr.Delete(msg[j])
			}
			j++
		}
	}
	b.StopTimer()
	st := dev.Stats()
	b.ReportMetric(float64(st.CostUnits)/float64(b.N), "cost/op")
	b.ReportMetric(float64(st.PageReads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(pool.Stats().PrefetchUnused-unused)/float64(b.N), "unused/op")
}

// bulkTree bulk-loads keys 0 … n-1 into a tree of 4 KiB pages on a pool of
// the given frames over medium.
func bulkTree(b *testing.B, medium storage.Medium, n, frames int) *Tree {
	tr, err := New(storage.NewBufferPool(storage.NewDevice(4096, medium, nil), frames), Config{})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := tr.BulkLoad(recs); err != nil {
		b.Fatal(err)
	}
	return tr
}
