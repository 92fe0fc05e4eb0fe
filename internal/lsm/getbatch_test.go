package lsm

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

// storageEvent is one pool or device event, as much of it as a twin compares.
type storageEvent struct {
	ev storage.Event
	id storage.PageID
}

type eventLog []storageEvent

func (l *eventLog) StorageEvent(ev storage.Event, id storage.PageID, _ rum.Class, _ uint64) {
	*l = append(*l, storageEvent{ev, id})
}

// lsmTwin is a tree on its own device and pool with every pool and device
// event logged.
type lsmTwin struct {
	tr  *Tree
	log eventLog
}

func newLSMTwin(medium storage.Medium, pageSize, poolPages int, cfg Config) *lsmTwin {
	tw := &lsmTwin{}
	dev := storage.NewDevice(pageSize, medium, nil)
	pool := storage.NewBufferPool(dev, poolPages)
	dev.SetHook(&tw.log)
	pool.SetHook(&tw.log)
	tw.tr = New(pool, cfg)
	return tw
}

func (tw *lsmTwin) devStats() storage.DeviceStats { return tw.tr.Pool().Device().Stats() }

// lsmPair drives two identically built twins: batched serves reads through
// GetBatch, loop the same reads as Gets. checked is how much of the two event
// logs has already been compared.
type lsmPair struct {
	batched, loop *lsmTwin
	checked       int
}

// mutate applies one blind write to both twins.
func (p *lsmPair) mutate(t testing.TB, op byte, k core.Key, v core.Value) {
	t.Helper()
	for _, tw := range []*lsmTwin{p.batched, p.loop} {
		switch op % 3 {
		case 0:
			if err := tw.tr.Insert(k, v); err != nil {
				t.Fatal(err)
			}
		case 1:
			tw.tr.Update(k, v)
		default:
			tw.tr.Delete(k)
		}
	}
}

// read serves keys as one GetBatch on one twin and as a loop of Gets on the
// other and requires the same values and oks (0 on a miss, whatever the
// buffers held). On a pool that does not batch I/O it then requires the same
// pool stats, meters, device ledgers and event sequences. On a batching one
// the batched twin's misses must equal its device reads, and the two meters
// may differ only by the bytes of the pages each device read: every
// memtable, fence and filter charge is the loop's. It returns the values
// and oks.
func (p *lsmPair) read(t testing.TB, keys []core.Key) ([]core.Value, []bool) {
	t.Helper()
	vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
	for i := range vals {
		vals[i], oks[i] = 0xdead, i%2 == 0 // a reused buffer's leftovers
	}
	p.batched.tr.GetBatch(keys, vals, oks)
	for i, k := range keys {
		v, ok := p.loop.tr.Get(k)
		if vals[i] != v || oks[i] != ok {
			t.Fatalf("key %d (slot %d of %d): GetBatch %d,%v; Get %d,%v", k, i, len(keys), vals[i], oks[i], v, ok)
		}
	}
	a, b := p.batched.tr, p.loop.tr
	ma, mb := *a.Meter(), *b.Meter()
	if pool := a.Pool(); pool.IOBatch() > 1 {
		if ms, reads := pool.Stats().Misses, pool.Device().Stats().PageReads; ms != reads {
			t.Fatalf("%d keys: GetBatch's pool counts %d misses for %d device reads", len(keys), ms, reads)
		}
		page := uint64(pool.Device().PageSize())
		da, db := p.batched.devStats(), p.loop.devStats()
		if ma.AuxRead != mb.AuxRead || ma.BaseRead-da.PageReads*page != mb.BaseRead-db.PageReads*page {
			t.Fatalf("%d keys: GetBatch's meter %+v after %d device reads; the Gets' %+v after %d", len(keys), ma, da.PageReads, mb, db.PageReads)
		}
		return vals, oks
	}
	if a.Pool().Stats() != b.Pool().Stats() {
		t.Fatalf("%d keys: GetBatch left pool stats %+v, the Gets %+v", len(keys), a.Pool().Stats(), b.Pool().Stats())
	}
	if ma != mb {
		t.Fatalf("%d keys: GetBatch left the meter at %+v, the Gets at %+v", len(keys), ma, mb)
	}
	if da, db := p.batched.devStats(), p.loop.devStats(); da != db {
		t.Fatalf("%d keys: GetBatch left the device at %+v, the Gets at %+v", len(keys), da, db)
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

// TestLSMGetBatchMatchesGets holds the live batch path to its definition on
// twin trees: one GetBatch and the loop of Gets must return the same values.
// The trees are several levels deep, leveled and tiered, with and without
// Bloom filters, and the writes between batches leave updates and tombstones
// in every level and in the memtable; batches repeat keys and reach past both
// ends of the key space. On a flat 512-byte SSD the two twins must also leave
// the same pool stats, meter, device ledger and event sequence after every
// batch. On a 4096-byte MQSSD, where each run's missing pages arrive as one
// Readahead wave, the batched twin's misses must equal its device reads after
// every batch, its meter must differ from the loop's by device reads alone,
// and at the end of the row its cost must be no higher than the loop's and
// its device reads at most 10 % above them: a wave's evictions can push out
// a page a later run reads again (DESIGN §9 records the worst row).
func TestLSMGetBatchMatchesGets(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"level", Config{MemtableRecords: 64, SizeRatio: 3}},
		{"tier", Config{MemtableRecords: 64, SizeRatio: 3, Tiering: true}},
		{"level-bloom", Config{MemtableRecords: 64, SizeRatio: 3, BloomBitsPerKey: 8}},
	}
	for _, pageSize := range []int{512, 4096} {
		medium, n := storage.SSD, 3000
		if pageSize == 4096 {
			medium, n = storage.MQSSD, 40000
		}
		for _, poolPages := range []int{4, 8, 24, 64, 256} {
			for _, sh := range shapes {
				cfg := sh.cfg
				if pageSize == 4096 {
					cfg.MemtableRecords = 512
				}
				name := fmt.Sprintf("page=%d/pool=%d/%s", pageSize, poolPages, sh.name)
				t.Run(name, func(t *testing.T) {
					p := &lsmPair{
						batched: newLSMTwin(medium, pageSize, poolPages, cfg),
						loop:    newLSMTwin(medium, pageSize, poolPages, cfg),
					}
					rng := rand.New(rand.NewSource(int64(pageSize + poolPages + len(sh.name))))
					// Keys are multiples of 3 in random order, so there are
					// absent keys between any two.
					for _, i := range rng.Perm(n) {
						p.mutate(t, 0, core.Key(3*i+3), core.Value(i))
					}
					if d := p.batched.tr.Depth(); d < 3 {
						t.Fatalf("depth %d: the case wants at least 3 levels", d)
					}
					top := core.Key(3*n + 3)
					for round := 0; round < 60; round++ {
						for j := 0; j < 40; j++ {
							p.mutate(t, byte(1+rng.Intn(2)), core.Key(3+3*rng.Intn(n)), core.Value(round))
						}
						keys := make([]core.Key, 1+(round%48))
						for i := range keys {
							switch rng.Intn(8) {
							case 0:
								keys[i] = math.MaxUint64
							case 1:
								if i > 0 {
									keys[i] = keys[rng.Intn(i)] // a repeat inside the batch
									break
								}
								fallthrough
							default:
								keys[i] = core.Key(rng.Intn(int(top) + 10))
							}
						}
						p.read(t, keys)
					}
					p.read(t, nil)
					if medium == storage.MQSSD {
						da, dl := p.batched.devStats(), p.loop.devStats()
						t.Logf("device reads %d against the Gets' %d (%.3fx), cost units %d against %d, prefetched unused %d",
							da.PageReads, dl.PageReads, float64(da.PageReads)/float64(max(dl.PageReads, 1)),
							da.CostUnits, dl.CostUnits, p.batched.tr.Pool().Stats().PrefetchUnused)
						if da.CostUnits > dl.CostUnits {
							t.Fatalf("GetBatch cost %d cost units, the Gets %d", da.CostUnits, dl.CostUnits)
						}
						if 10*da.PageReads > 11*dl.PageReads {
							t.Fatalf("GetBatch read %d pages, more than 1.10x the Gets' %d", da.PageReads, dl.PageReads)
						}
					}
				})
			}
		}
	}
}

// FuzzLSMGetBatch runs an op stream on twin trees beside a map oracle; op
// kind 3 reads a batch whose keys a second byte stream picks, one twin
// through GetBatch and the other through Gets, which must agree with each
// other (lsmPair.read: event for event on the SSD, by the miss ledger and the
// meter on the MQSSD) and with the oracle. The first pick byte sizes the pool,
// 4 to 67 frames, turns on Bloom filters and (bit 7) picks the MQSSD.
func FuzzLSMGetBatch(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 9, 3, 0, 0, 2, 0, 5, 3, 0, 0}, []byte{20, 3, 0, 5, 0, 9, 0, 7})
	long := make([]byte, 0, 3*1600)
	for i := 0; i < 1600; i++ { // several levels of 32-record memtables, read now and then
		op := byte(i % 3)
		if i%200 == 199 {
			op = 3
		}
		long = append(long, op, byte(i*7>>8), byte(i*7))
	}
	f.Add(long, []byte{20, 34, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34})
	f.Add(long, []byte{64 + 60, 63, 200, 13, 1, 255, 77, 140, 33, 2, 9, 99})
	f.Add(long, []byte{128 + 20, 34, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34})
	f.Add(long, []byte{128 + 64 + 4, 63, 200, 13, 1, 255, 77, 140, 33, 2, 9, 99, 2, 5, 5, 1})
	f.Fuzz(func(t *testing.T, ops, picks []byte) {
		if len(picks) == 0 {
			return
		}
		cfg := Config{MemtableRecords: 32, SizeRatio: 3}
		if picks[0]&64 != 0 {
			cfg.BloomBitsPerKey = 8
		}
		medium := storage.SSD
		if picks[0]&128 != 0 {
			medium = storage.MQSSD
		}
		poolPages := 4 + int(picks[0])%64
		picks = picks[1:]
		p := &lsmPair{
			batched: newLSMTwin(medium, 512, poolPages, cfg),
			loop:    newLSMTwin(medium, 512, poolPages, cfg),
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
			case 2:
				p.mutate(t, op, k, 0)
				delete(live, k)
			default: // blind writes: an update of an absent key stores it
				p.mutate(t, op, k, core.Value(step))
				live[k] = core.Value(step)
			}
		}
		for len(picks) > 0 {
			readBatch()
		}
	})
}

// BenchmarkLSMGetBatch reads uniformly drawn keys of a filterless LSM-tree
// of 262 144 keys (4 KiB pages, memtables of 1 024 records, T = 10: the
// store ingest-wal runs under its log) through a
// 256-frame pool on the multi-queue SSD: the loop of Gets, then GetBatch at
// b keys a call, where each run's missing pages go to the device as one
// wave. Reported per key beside ns: the device's cost units and page reads,
// and the prefetched pages evicted unread.
func BenchmarkLSMGetBatch(b *testing.B) {
	const n = 1 << 18
	dev := storage.NewDevice(4096, storage.MQSSD, nil)
	pool := storage.NewBufferPool(dev, 256)
	tr := New(pool, Config{MemtableRecords: 1024, SizeRatio: 10})
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(core.Key(i), core.Value(i)); err != nil {
			b.Fatal(err)
		}
	}
	tr.Flush()
	drawn := make([]core.Key, 1<<16)
	for i := range drawn {
		drawn[i] = core.Key(rng.Intn(n))
	}
	key := func(i int) core.Key { return drawn[i&(len(drawn)-1)] }
	report := func(b *testing.B, before storage.DeviceStats, unused uint64) {
		after := dev.Stats()
		b.ReportMetric(float64(after.CostUnits-before.CostUnits)/float64(b.N), "cost/op")
		b.ReportMetric(float64(after.PageReads-before.PageReads)/float64(b.N), "reads/op")
		b.ReportMetric(float64(pool.Stats().PrefetchUnused-unused)/float64(b.N), "unused/op")
	}
	b.Run("loop", func(b *testing.B) {
		before, unused := dev.Stats(), pool.Stats().PrefetchUnused
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Get(key(i)); !ok {
				b.Fatal("lost key")
			}
		}
		report(b, before, unused)
	})
	for _, batch := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			keys, vals, oks := make([]core.Key, batch), make([]core.Value, batch), make([]bool, batch)
			before, unused := dev.Stats(), pool.Stats().PrefetchUnused
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
			report(b, before, unused)
		})
	}
}
