package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
)

// msgOp is one operation of a mailbox message: kind 0 is a get, 1 an insert,
// 2 an update, 3 a delete.
type msgOp struct {
	kind byte
	key  core.Key
	val  core.Value
}

// outcome is what one msgOp returned: a get's value and ok, a write's ok.
type outcome struct {
	val core.Value
	ok  bool
}

// hint is what serveMessage does with a message's keys before its operations.
type hint int

const (
	noHint   hint = iota
	prefetch      // hand them to Prefetch as one hint
	forget        // hand them to Prefetch, then drop the routes it kept
)

// serveMessage applies msg to tw as a serving shard applies a message of
// operations: with a hint, every key first goes to Prefetch; then each run
// of consecutive gets is one GetBatch and each write a call of its own, all
// through the core.Instrument wrapper. It returns the operations' outcomes.
// forget bumps the tree's stamp after the Prefetch, so the operations route
// by searching the internal nodes as they would without the memo.
func serveMessage(tw *twin, msg []msgOp, h hint) []outcome {
	out := make([]outcome, len(msg))
	if h != noHint {
		keys := make([]core.Key, len(msg))
		for i, op := range msg {
			keys[i] = op.key
		}
		tw.w.Prefetch(keys)
		if h == forget {
			tw.tr.stamp++
		}
	}
	for i := 0; i < len(msg); {
		if msg[i].kind == 0 {
			end := i + 1
			for end < len(msg) && msg[end].kind == 0 {
				end++
			}
			keys := make([]core.Key, end-i)
			vals, oks := make([]core.Value, end-i), make([]bool, end-i)
			for j := range keys {
				keys[j] = msg[i+j].key
			}
			tw.w.GetBatch(keys, vals, oks)
			for j := range keys {
				out[i+j] = outcome{vals[j], oks[j]}
			}
			i = end
			continue
		}
		op := msg[i]
		switch op.kind {
		case 1:
			out[i].ok = tw.w.Insert(op.key, op.val) == nil
		case 2:
			out[i].ok = tw.w.Update(op.key, op.val)
		default:
			out[i].ok = tw.w.Delete(op.key)
		}
		i++
	}
	return out
}

// scanAll returns the tree's records in key order.
func scanAll(tr *Tree) []core.Record {
	var recs []core.Record
	tr.RangeScan(0, math.MaxUint64, func(k core.Key, v core.Value) bool {
		recs = append(recs, core.Record{Key: k, Value: v})
		return true
	})
	return recs
}

// scanDigest folds a full scan of tr into an order-sensitive digest, and
// counts its records.
func scanDigest(tr *Tree) (digest uint64, n int) {
	n = tr.RangeScan(0, math.MaxUint64, func(k core.Key, v core.Value) bool {
		digest = (digest*31+k)*31 + v
		return true
	})
	return digest, n
}

// prefetchPair drives three identically built twins with the same messages:
// hinted prefetches each message's keys first, plain never does, and
// forgetful prefetches them and then drops the routes Prefetch kept.
// checked is how much of the plain and of the forgetful twin's event log
// has already been compared with the hinted twin's; msgReads and msgCost
// sum the device reads and cost units the messages themselves caused on the
// hinted and the plain twin, the full scans between them left out.
type prefetchPair struct {
	hinted, plain, forgetful *twin
	checked                  [2]int
	msgReads, msgCost        [2]uint64
}

func newPrefetchPair(t testing.TB, medium storage.Medium, pageSize, poolPages int, cfg Config) *prefetchPair {
	return &prefetchPair{
		hinted:    newTwin(t, medium, pageSize, poolPages, cfg),
		plain:     newTwin(t, medium, pageSize, poolPages, cfg),
		forgetful: newTwin(t, medium, pageSize, poolPages, cfg),
	}
}

func (p *prefetchPair) twins() []*twin { return []*twin{p.hinted, p.plain, p.forgetful} }

// serve applies msg to the twins and requires the same outcome from every
// operation, the same Len and, with scan, the same full scan afterwards. The
// forgetful twin must also have left the hinted twin's pool stats, meter and
// sequence of pool and device events (kind and page, in order): the routes
// Prefetch keeps save searches, not pool calls. Where Prefetch reads ahead
// (prefetches) it requires the hinted twin's misses to equal its device
// reads. Anywhere else, where Prefetch makes no pool call at all, the plain
// twin must have left the hinted twin's ledger too.
func (p *prefetchPair) serve(t *testing.T, msg []msgOp, scan bool) {
	t.Helper()
	var got [3][]outcome
	for i, tw := range p.twins() {
		before := tw.tr.Pool().Device().Stats()
		got[i] = serveMessage(tw, msg, [...]hint{prefetch, noHint, forget}[i])
		after := tw.tr.Pool().Device().Stats()
		if i < 2 {
			p.msgReads[i] += after.PageReads - before.PageReads
			p.msgCost[i] += after.CostUnits - before.CostUnits
		}
	}
	for i := range msg {
		if got[0][i] != got[1][i] || got[0][i] != got[2][i] {
			t.Fatalf("op %d (kind %d) on key %d: %+v with the prefetch, %+v without, %+v with its routes dropped",
				i, msg[i].kind, msg[i].key, got[0][i], got[1][i], got[2][i])
		}
	}
	a := p.hinted.tr
	for _, tw := range p.twins()[1:] {
		if b := tw.tr; a.Len() != b.Len() {
			t.Fatalf("Len %d with the prefetch, %d on a twin", a.Len(), b.Len())
		}
	}
	if scan {
		da, na := scanDigest(a)
		for _, tw := range p.twins()[1:] {
			if db, nb := scanDigest(tw.tr); na != nb || na != a.Len() || da != db {
				t.Fatalf("full scans: %d records (digest %x) with the prefetch, %d (%x) on a twin; Len %d", na, da, nb, db, a.Len())
			}
		}
	}
	p.checked[1] = sameLedger(t, p.hinted, p.forgetful, "with its routes dropped", p.checked[1])
	if pool := a.Pool(); prefetches(a) {
		if ms, reads := pool.Stats().Misses, pool.Device().Stats().PageReads; ms != reads {
			t.Fatalf("the prefetching pool counts %d misses for %d device reads", ms, reads)
		}
		return
	}
	p.checked[0] = sameLedger(t, p.hinted, p.plain, "without", p.checked[0])
}

// sameLedger requires other to have left the pool stats, meter and sequence
// of pool and device events tw left, comparing the events from checked on,
// and returns how many it has compared. name says how other was served.
func sameLedger(t testing.TB, tw, other *twin, name string, checked int) int {
	t.Helper()
	a, b := tw.tr, other.tr
	if a.Pool().Stats() != b.Pool().Stats() {
		t.Fatalf("pool stats %+v with the prefetch, %+v %s", a.Pool().Stats(), b.Pool().Stats(), name)
	}
	if *a.Meter() != *b.Meter() {
		t.Fatalf("meter %+v with the prefetch, %+v %s", *a.Meter(), *b.Meter(), name)
	}
	la, lb := tw.log, other.log
	if len(la) != len(lb) {
		t.Fatalf("%d storage events with the prefetch, %d %s", len(la), len(lb), name)
	}
	for i := checked; i < len(la); i++ {
		if la[i] != lb[i] {
			t.Fatalf("storage event %d is %v on page %d with the prefetch, %v on page %d %s", i, la[i].ev, la[i].id, lb[i].ev, lb[i].id, name)
		}
	}
	return len(la)
}

// prefetches reports whether tr.Prefetch reads ahead: a pool that batches
// I/O, and a budget of two pages or more.
func prefetches(tr *Tree) bool { return tr.Pool().BatchIO() && tr.prefetchBudget() > 1 }

// TestTreePrefetchMatchesPlain holds Tree.Prefetch to being a hint: twin
// trees serve the same messages of mixed gets, inserts, updates and deletes,
// keys repeating inside a message and inserts splitting leaves. One twin
// hands each message's keys to Prefetch first, one never does, and a third,
// forgetful, prefetches and then drops the routes Prefetch kept. Every
// operation's outcome, the Len and a full scan must be the same on all
// three after every message (every tenth and the last under -short), and on
// every row the forgetful twin's pool stats, meter and event sequence must
// be the hinted twin's: taking a child from a kept route instead of
// searching the node changes no pool call. Where Prefetch reads ahead — the multi-queue
// SSD from 24 frames up on 4096-byte pages, from 12 on 512-byte ones — the
// hinted twin's misses must equal its device reads, and its messages must
// cost strictly fewer units at the end of the row and read at most 10 %
// more pages than the plain twin's: a wave's evictions can push out a page
// read ahead for a later operation of the same message (DESIGN §9). At 4
// and 8 frames, where the budget leaves no wave, on the flat SSD, in RAM and
// on the multi-queue SSD with a fault injector armed, Prefetch must make no
// pool call: the plain twin's ledger must be the hinted twin's too.
func TestTreePrefetchMatchesPlain(t *testing.T) {
	type row struct {
		medium            storage.Medium
		pageSize, maxLeaf int
		poolPages         int
		versions          int
		faulty            bool
		n, messages       int
	}
	var rows []row
	for _, poolPages := range []int{4, 8, 24, 64, 256} {
		for _, versions := range []int{0, 2} {
			// Leaves of 64 records: height 3 from 21 761 keys on.
			rows = append(rows, row{storage.MQSSD, 4096, 64, poolPages, versions, false, 24000, 60})
		}
	}
	for _, poolPages := range []int{4, 12, 64} {
		rows = append(rows,
			row{storage.SSD, 512, 0, poolPages, 0, false, 3000, 60},
			row{storage.RAM, 512, 0, poolPages, 2, false, 3000, 60},
			row{storage.MQSSD, 512, 0, poolPages, 0, true, 3000, 60},
			row{storage.MQSSD, 512, 0, poolPages, 0, false, 3000, 60})
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/page=%d/pool=%d/versions=%d", r.medium, r.pageSize, r.poolPages, r.versions)
		if r.faulty {
			name += "/faults"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{MaxLeaf: r.maxLeaf, Versions: r.versions}
			p := newPrefetchPair(t, r.medium, r.pageSize, r.poolPages, cfg)
			// Keys are multiples of 3, in full leaves: there are absent keys
			// between any two, and an insert splits its leaf.
			recs := make([]core.Record, r.n)
			for i := range recs {
				recs[i] = core.Record{Key: core.Key(3*i + 3), Value: core.Value(i)}
			}
			for _, tw := range p.twins() {
				if err := tw.tr.BulkLoad(recs); err != nil {
					t.Fatal(err)
				}
				tw.tr.Flush()
				if r.faulty {
					// Transient faults only, retried by the pool: the twins
					// see the same fault stream while they make the same calls.
					tw.tr.Pool().Device().SetInjector(faults.New(faults.Plan{Seed: 7, PRead: 0.02, PWrite: 0.02}))
					tw.tr.Pool().SetRetryBudget(8)
				}
			}
			if p.hinted.tr.Height() != 3 {
				t.Fatalf("height %d, the row wants 3", p.hinted.tr.Height())
			}
			rng := rand.New(rand.NewSource(int64(r.pageSize + r.poolPages + r.versions)))
			top := 3*r.n + 3
			for m := 0; m < r.messages; m++ {
				msg := make([]msgOp, 1+rng.Intn(40))
				for i := range msg {
					// Half gets; writes at read50's shares.
					op := msgOp{key: core.Key(1 + rng.Intn(top)), val: core.Value(m<<8 | i)}
					switch x := rng.Intn(20); {
					case x < 10:
					case x < 14:
						op.kind = 1
					case x < 17:
						op.kind = 2
					default:
						op.kind = 3
					}
					if i > 0 && rng.Intn(6) == 0 {
						op.key = msg[rng.Intn(i)].key // touched twice in one message
					}
					msg[i] = op
				}
				// -short (the racecheck build's run) scans after every tenth.
				p.serve(t, msg, !testing.Short() || m%10 == 9 || m == r.messages-1)
				if r.versions > 0 && m%5 == 4 {
					for _, tw := range p.twins() {
						if tw.tr.Publish() != nil {
							t.Fatal("publish failed")
						}
					}
				}
			}
			if p.hinted.tr.Stats().LeafSplits == 0 {
				t.Fatal("no leaf split: the row must split leaves under the prefetch")
			}
			if !prefetches(p.hinted.tr) {
				if r.medium == storage.MQSSD && !r.faulty && r.poolPages >= 24 {
					t.Fatalf("a %d-frame pool on the multi-queue SSD never read ahead", r.poolPages)
				}
				return
			}
			hr, pr, hc, pc := p.msgReads[0], p.msgReads[1], p.msgCost[0], p.msgCost[1]
			t.Logf("messages read %d pages against the plain twin's %d (%.3fx), cost %d units against %d (%.3fx), prefetched unused %d",
				hr, pr, float64(hr)/float64(pr), hc, pc, float64(hc)/float64(pc), p.hinted.tr.Pool().Stats().PrefetchUnused)
			if hc >= pc {
				t.Fatalf("the prefetching twin's messages cost %d units, the plain twin's %d: the waves must save some", hc, pc)
			}
			if 10*hr > 11*pr {
				t.Fatalf("the prefetching twin's messages read %d pages, more than 1.10x the plain twin's %d", hr, pr)
			}
		})
	}
}

// FuzzTreePrefetch runs an op stream, cut into messages, on twin trees
// beside a map oracle: before each message one twin hands the message's
// keys to Prefetch, one does not, and a third prefetches and then drops the
// routes Prefetch kept. Every operation must return what the oracle says on
// every twin, the third twin's ledger (pool stats, meter, event sequence)
// must be the first's after every message, and after the last message
// every twin's full scan and Len must be the oracle's. Each op is three bytes: a kind (0
// insert, 1 update, 2 delete, 3 get, 4 ends the message) and a key. The
// first config byte sizes the pool, 4 to 67 frames, turns on Versions (bit
// 6) and picks the multi-queue SSD (bit 7).
func FuzzTreePrefetch(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 0, 5, 3, 0, 5, 1, 0, 5, 4, 0, 0, 3, 0, 5, 2, 0, 5, 3, 0, 5}, byte(128+8))
	long := make([]byte, 0, 3*1600)
	for i := 0; i < 1600; i++ { // three levels on 512-byte pages, messages of 20
		op := byte(i % 4)
		if i < 1200 {
			op = 0
		}
		if i%20 == 19 {
			op = 4
		}
		long = append(long, op, byte(i*37>>8), byte(i*37))
	}
	f.Add(long, byte(128+8))
	f.Add(long, byte(128+64+20))
	f.Add(long, byte(20))
	f.Fuzz(func(t *testing.T, ops []byte, config byte) {
		cfg := Config{}
		if config&64 != 0 {
			cfg.Versions = 2
		}
		medium := storage.SSD
		if config&128 != 0 {
			medium = storage.MQSSD
		}
		poolPages := 4 + int(config)%64
		p := newPrefetchPair(t, medium, 512, poolPages, cfg)
		live := map[core.Key]core.Value{}
		var msg []msgOp
		flush := func() {
			got := [3][]outcome{serveMessage(p.hinted, msg, prefetch), serveMessage(p.plain, msg, noHint), serveMessage(p.forgetful, msg, forget)}
			for i, op := range msg {
				want := outcome{}
				v, ok := live[op.key]
				switch op.kind {
				case 0:
					want = outcome{v, ok}
				case 1:
					if want.ok = !ok; !ok {
						live[op.key] = op.val
					}
				case 2:
					if want.ok = ok; ok {
						live[op.key] = op.val
					}
				default:
					want.ok = ok
					delete(live, op.key)
				}
				if got[0][i] != want || got[1][i] != want || got[2][i] != want {
					t.Fatalf("op %d (kind %d) on key %d: %+v with the prefetch, %+v without, %+v with its routes dropped; the oracle %+v",
						i, op.kind, op.key, got[0][i], got[1][i], got[2][i], want)
				}
			}
			p.checked[1] = sameLedger(t, p.hinted, p.forgetful, "with its routes dropped", p.checked[1])
			msg = msg[:0]
		}
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			k := core.Key(binary.BigEndian.Uint16(ops[1:3]))%4096*2 + 2
			switch kind := ops[0] % 5; kind {
			case 4:
				flush()
			case 3:
				msg = append(msg, msgOp{kind: 0, key: k})
			default:
				msg = append(msg, msgOp{kind: kind + 1, key: k, val: core.Value(step)})
			}
			if cfg.Versions > 0 && step%97 == 96 {
				flush()
				for _, tw := range p.twins() {
					if tw.tr.Publish() != nil {
						t.Fatal("publish failed")
					}
				}
			}
		}
		flush()
		for _, tw := range p.twins() {
			recs := scanAll(tw.tr)
			if len(recs) != len(live) || tw.tr.Len() != len(live) {
				t.Fatalf("full scan %d records, Len %d; the oracle holds %d", len(recs), tw.tr.Len(), len(live))
			}
			for _, r := range recs {
				if v, ok := live[r.Key]; !ok || v != r.Value {
					t.Fatalf("full scan holds %d=%d; the oracle %d,%v", r.Key, r.Value, v, ok)
				}
			}
		}
	})
}

// TestPrefetchRoutesDroppedOnSplit holds the route memo to its stamp rule
// inside one message, on 512-byte pages (31-record leaves, 41-separator
// internal nodes) bulk-loaded full on the multi-queue SSD. A first message
// of gets, updates and a delete allocates nothing: every operation must
// take its route from the memo, so the cursor ends past the last key under
// the stamp Prefetch kept. In the second, an early insert splits a leaf
// that later keys of the same message routed to before it (the split row)
// or grows a new root (the root row, where the height changes too): the
// memo must be dropped at the insert, and the later operations must still
// return what the plain and forgetful twins return, with the same full scan.
func TestPrefetchRoutesDroppedOnSplit(t *testing.T) {
	// Leaf j holds keys 3i+3 for i in [31j, 31j+31).
	key := func(i int) core.Key { return core.Key(3*i + 3) }
	for _, r := range []struct {
		name          string
		n, height     int // keys bulk-loaded, and the height they give
		grown         int // the height after the insert
		first, second []msgOp
		insertAt      int // the insert's position in the second message
	}{
		{
			// 97 leaves under three internal nodes.
			name: "split", n: 3000, height: 3, grown: 3,
			first: []msgOp{{0, key(5), 0}, {0, key(700), 0}, {0, key(2900), 0}, {2, key(40), 1}, {0, key(1500), 0}, {3, key(2000), 0}},
			// Leaf 10 (i 310–340) splits at i 326: keys past it move right.
			second:   []msgOp{{0, key(100), 0}, {1, key(320) + 1, 2}, {0, key(335), 0}, {2, key(338), 3}, {0, key(336), 0}, {3, key(339), 0}},
			insertAt: 1,
		},
		{
			// 42 leaves under one full root: any split grows a new root.
			name: "root", n: 42 * 31, height: 2, grown: 3,
			first:    []msgOp{{0, key(5), 0}, {0, key(700), 0}, {0, key(1200), 0}, {2, key(40), 1}, {3, key(900), 0}},
			second:   []msgOp{{1, key(320) + 1, 2}, {0, key(335), 0}, {2, key(338), 3}, {0, key(1), 0}, {0, key(1300), 0}},
			insertAt: 0,
		},
	} {
		t.Run(r.name, func(t *testing.T) {
			p := newPrefetchPair(t, storage.MQSSD, 512, 64, Config{})
			recs := make([]core.Record, r.n)
			for i := range recs {
				recs[i] = core.Record{Key: key(i), Value: core.Value(i)}
			}
			for _, tw := range p.twins() {
				if err := tw.tr.BulkLoad(recs); err != nil {
					t.Fatal(err)
				}
				tw.tr.Flush()
			}
			tr := p.hinted.tr
			if tr.Height() != r.height || !prefetches(tr) {
				t.Fatalf("height %d, prefetching %v; the row wants %d and a prefetching pool", tr.Height(), prefetches(tr), r.height)
			}
			p.serve(t, r.first, true)
			if m := &tr.routes; m.next != len(r.first) || m.stamp != tr.stamp || m.height != tr.height {
				t.Fatalf("after a message that allocates nothing the memo's cursor is at %d of %d, its stamp %d (the tree's %d)",
					m.next, len(r.first), m.stamp, tr.stamp)
			}
			splits := tr.Stats().LeafSplits
			p.serve(t, r.second, true)
			if tr.Stats().LeafSplits != splits+1 || tr.Height() != r.grown {
				t.Fatalf("%d leaf splits and height %d after the insert; the row wants one split and height %d",
					tr.Stats().LeafSplits-splits, tr.Height(), r.grown)
			}
			if m := &tr.routes; m.next != r.insertAt+1 || m.stamp == tr.stamp {
				t.Fatalf("the memo's cursor is at %d, its stamp %d (the tree's %d): it must be dropped at the insert, op %d",
					m.next, m.stamp, tr.stamp, r.insertAt)
			}
			if got, _ := tr.Get(key(335)); got != 335 {
				t.Fatalf("key %d reads %d after the split, wants 335", key(335), got)
			}
		})
	}
}
