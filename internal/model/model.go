// Package model is the repository's one analytic RUM cost model: it prices a
// (structure configuration, traffic shape, substrate) triple into the paper's
// read, update and memory overheads. The wizard (core.Recommend), the advisor
// (obs.Advise) and the morphing engine (methods.Morphing) all decide from these
// rows, and calib_test.go holds them against the simulator (DESIGN.md §13).
//
// Unit: page reads per operation. Paged structures (btree, hash, lsm) move
// whole pages through a buffer pool, a written page weighing WriteCost/ReadCost
// reads; in-memory structures are charged the bytes they touch — a cache line
// per random access, exact bytes per contiguous run — as fractions of a page,
// which is how internal/rum meters them.
package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lsm/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Params is the substrate a structure is priced on. The caller hands over the
// sizes (methods.Options.Model does); the package imports none of them.
type Params struct {
	N          float64 // live records
	PageSize   int     // bytes per device page
	RecordSize int     // bytes per record (a key and a value word)
	LineSize   int     // bytes charged per random in-memory access
	PoolPages  int     // buffer-pool frames
	Medium     storage.CostModel
}

// Traffic is the shape of the operation stream, priced over a horizon of as
// many operations as the structure holds records: long enough for cracking and
// buffered inserts to amortise, and what the calibration runs.
type Traffic struct {
	workload.Mix         // op fractions
	ScanRows     float64 // rows per scan
	// HotShare is the fraction of keyed ops on a hot set small enough to stay
	// pool-resident (the fingerprint's heavy hitters).
	HotShare float64
}

func (t Traffic) writes() float64 { return t.Insert + t.Update + t.Delete }

// Config is one structure configuration: a catalog method and the knobs the
// model prices. Unused knobs stay zero.
type Config struct {
	Method    string  // catalog name (methods.Catalog)
	Fill      float64 // btree bulk-load leaf fill / hash load limit
	SizeRatio float64 // lsm T
	BloomBits float64 // lsm filter bits per key
	Buffer    float64 // lsm memtable records / cracking merge threshold
	Partition float64 // zonemap records per zone
}

// String is the advisor's configuration label.
func (c Config) String() string {
	switch c.Method {
	case "btree":
		return fmt.Sprintf("btree(fill=%.2f)", c.Fill)
	case "lsm-level", "lsm-tier":
		return fmt.Sprintf("%s(T=%.0f,bloom=%.0fb)", c.Method, c.SizeRatio, c.BloomBits)
	}
	return c.Method
}

// candidates is the set the wizard and the advisor rank. The first nine are
// standard: every priced catalog method in the configuration methods.Catalog
// builds it with; the rest are the LSM knob settings worth moving to.
var candidates = []Config{
	{Method: "btree", Fill: 1},
	{Method: "hash", Fill: 0.8},
	{Method: "skiplist"},
	{Method: "lsm-level", SizeRatio: 10, Buffer: 1024},
	{Method: "lsm-tier", SizeRatio: 10, Buffer: 1024},
	{Method: "zonemap", Partition: 256},
	{Method: "sorted-column"},
	{Method: "unsorted-column"},
	{Method: "cracking", Buffer: 1 << 16},
	{Method: "lsm-level", SizeRatio: 4, BloomBits: 10, Buffer: 1024},
	{Method: "lsm-level", SizeRatio: 10, BloomBits: 10, Buffer: 1024},
	{Method: "lsm-level", SizeRatio: 10, BloomBits: 2, Buffer: 1024},
	{Method: "lsm-tier", SizeRatio: 4, BloomBits: 10, Buffer: 1024},
	{Method: "lsm-tier", SizeRatio: 10, BloomBits: 10, Buffer: 1024},
}
var standard = candidates[:9]

// NotPriced lists the catalog methods the model has no row for: their cost
// follows key bits (trie) or value cardinality (bitmap), which it is not told.
var NotPriced = []string{"trie", "bitmap"}

// Lookup returns the standard configuration of a catalog method, by its
// exact catalog name.
func Lookup(method string) (Config, bool) {
	for _, c := range standard {
		if c.Method == method {
			return c, true
		}
	}
	return Config{}, false
}

// Row is one priced configuration: page reads per point read (RO), per write
// (UO, averaged over the traffic's insert/update/delete shares) and per scan
// of Traffic.ScanRows rows (ScanRO), and the space amplification MO.
type Row struct {
	Config             Config
	RO, UO, ScanRO, MO float64
}

// SpaceRent converts a unit of space amplification into page reads per op —
// the one exchange rate the model cannot derive, since traffic and footprint
// have no common unit.
const SpaceRent = 0.05

// Weighted is the mix-weighted cost of serving t from r, with the caller's
// priorities on read, write and space cost.
func (r Row) Weighted(t Traffic, read, write, space float64) float64 {
	return read*(t.Get*r.RO+t.Scan*r.ScanRO) + write*t.writes()*r.UO + space*SpaceRent*r.MO
}

// Cost is Weighted with no preference.
func (r Row) Cost(t Traffic) float64 { return r.Weighted(t, 1, 1, 1) }

// Price prices c under t on p.
func (c Config) Price(t Traffic, p Params) Row {
	n, page := math.Max(p.N, 2), float64(p.PageSize)
	rec, line := float64(p.RecordSize)/page, float64(p.LineSize)/page
	// Every page layout spends under one slot on its header; a page write
	// weighs WriteCost/ReadCost page reads.
	epp := page/float64(p.RecordSize) - 1
	ww := float64(max(p.Medium.WriteCost, 1)) / float64(max(p.Medium.ReadCost, 1))
	// The horizon's inserts and deletes move the record count from n to end;
	// structures whose cost follows their size are priced at the mean.
	end := math.Max(n*(1+t.Insert-t.Delete), 2)
	avg := (n + end) / 2
	// miss is the chance a uniformly chosen one of pages misses a pool with
	// frames left for them; hot-set ops always hit.
	miss := func(pages, frames float64) float64 {
		return (1 - t.HotShare) * math.Max(0, 1-frames/math.Max(pages, 1e-9))
	}
	// walk is a skip-list search (p = 1/2): the 24-pointer head's four lines,
	// then five forward moves every four levels, a line each (the rate the
	// calibration measures; tall towers span two lines).
	walk := func(m float64) float64 { return (4 + 1.25*math.Log2(1+m)) * line }
	search := math.Log2(avg) * line // a binary search over the in-memory slots, a line per probe
	// mix averages per-kind write costs over the traffic's write shares (even
	// ones when it has no writes to say).
	wi, wu, wd := t.Insert, t.Update, t.Delete
	if t.writes() == 0 {
		wi, wu, wd = 1, 1, 1
	}
	mix := func(ins, upd, del float64) float64 { return (wi*ins + wu*upd + wd*del) / (wi + wu + wd) }
	rows, frames := math.Max(t.ScanRows, 1), float64(p.PoolPages)

	r := Row{Config: c, MO: 1}
	switch c.Method {
	case "btree":
		// Leaves load Fill full; one absorbs the inserts its slack holds, then
		// splits in two, and under sustained growth leaves settle ln 2 full.
		// The pool keeps the tree top-down: inner levels first, leaves share
		// what is left. A dirtied leaf is written back when it is evicted.
		l0 := n / (epp * c.Fill)
		leaves := l0 * (2 - math.Exp(-t.Insert*n/(l0*(1+(1-c.Fill)*epp))))
		if settled := end / (epp * math.Ln2); settled > 2*l0 {
			leaves = settled
		}
		fan, inner := end/leaves, 0.0
		levels := []float64{leaves}
		for m := leaves; m > 1; levels = append(levels, m) {
			m = math.Ceil(m / fan)
		}
		for i := len(levels) - 1; i > 0; i-- {
			inner += miss(levels[i], frames)
			frames = math.Max(0, frames-levels[i])
		}
		leaf := miss(leaves, frames)
		r.RO, r.UO, r.ScanRO = inner+leaf, inner+leaf*(1+ww), inner+leaf*(1+rows/fan)
		r.MO = (1 + 1/fan) * epp / fan
	case "hash":
		// The directory doubles to keep the load under Fill; no order, so a
		// scan sweeps every bucket through the pool.
		pages := math.Exp2(math.Ceil(math.Log2(end / (epp * c.Fill))))
		m := miss(pages, frames)
		r.RO, r.UO, r.MO = m, m*(1+ww), pages*epp/end
		if pages > frames {
			r.ScanRO = pages
		}
	case "skiplist":
		// Towers average two pointers a node: insert writes the node and two
		// predecessors, update one line, delete two.
		w := walk(avg)
		r.RO, r.UO, r.ScanRO, r.MO = w+line, w+mix(3, 1, 2)*line, w+rows*line, 2
	case "lsm-level", "lsm-tier":
		// The runs' page traffic, then the memtable's: a search before every
		// op, a put per write, a filter's bits beside every record.
		r = c.lsm(r, n, end, t.writes()*n, epp, ww, rec, rows, frames, miss)
		mem := walk(math.Min(t.writes()*n, c.Buffer) / 2)
		r.RO, r.ScanRO, r.UO = r.RO+mem, r.ScanRO+mem, r.UO+mem+mix(3, 1, 1)*line
		r.MO *= 1 + c.BloomBits/8/float64(p.RecordSize)
	case "zonemap":
		// Every op scans all zone summaries (two keys and a count), then
		// whole zones; a zone grows to two partitions before it splits.
		zone := c.Partition * avg / n
		if zone >= 2*c.Partition {
			zone = 1.5 * c.Partition
		}
		meta := avg / zone * 1.5 * rec
		r.RO, r.UO, r.ScanRO = meta+zone*rec, meta+zone*rec+line, meta+(rows+zone)*rec
		r.MO = 1 + 1.5/c.Partition
	case "sorted-column":
		shift := search + avg/2*rec // inserts and deletes move half the column
		r.RO, r.UO, r.ScanRO = search+line, mix(shift, search+line, shift), search+rows*rec
	case "unsorted-column":
		find := avg / 2 * rec // a hit scans half the heap
		r.RO, r.UO, r.ScanRO = find, mix(line, find+line, find+line), avg*rec
	case "cracking":
		// Every op scans the pending inserts, finds its piece in the cracker
		// index and cracks it at both bounds. After q ops the piece around a
		// key holds 2n/q records — read whole, then its upper half again — so
		// n ops pay 3·ln(n) record reads each (a key-ordered load, as Preload
		// hands over, needs no swaps) and leave 2n(1-1/e) index entries.
		pend := math.Min(t.Insert*n, c.Buffer) / 2 * rec
		crack := 2*math.Log2(1+n)*line + 3*rec*math.Log(1+n)
		r.RO, r.UO, r.ScanRO = pend+crack+rec, pend+crack+line, pend+crack+rows*rec
		r.MO = 1 + 2*(1-1/math.E)
	default:
		panic(fmt.Sprintf("model: no row for method %q", c.Method))
	}
	return r
}

// lsm prices the horizon's flush and merge schedule on record counts alone.
// The schedule is internal/lsm/plan's, the one lsm.Tree executes: a load is
// one run where the planner places it, every flush adds a Buffer-sized run
// and folds the planner's steps over the counts. Reads and scans are priced
// on the runs standing in each flush interval and averaged, writes pay their
// flush and every merge that moved them, MO is what stands at the close. The
// memtable's share is the caller's to add.
func (c Config) lsm(r Row, n, end, written, epp, ww, rec, rows, frames float64, miss func(pages, frames float64) float64) Row {
	pol := plan.Policy{Buffer: c.Buffer, SizeRatio: c.SizeRatio, Tiering: c.Method == "lsm-tier"}
	if most := 1024 * c.Buffer; written > most { // by 1024 flushes every level in reach has turned over
		written, end = most, n+(end-n)*most/written
	}
	levels := make(plan.Counts, pol.LoadLevel(n)+1)
	levels[len(levels)-1] = []float64{n}
	// A run that cannot hold the key costs its page, or with a filter k word
	// probes and the page only on a false positive.
	probe, falsePos := 0.0, 1.0
	if c.BloomBits > 0 {
		probe, falsePos = math.Round(c.BloomBits*math.Ln2)*rec/2, math.Pow(0.6185, c.BloomBits)
	}
	flushes, moved := math.Ceil(written/c.Buffer-1e-9), 0.0
	share := 1 / math.Max(flushes, 1)
	var runs []float64 // every standing run, smallest first
	for f := 0.0; ; f++ {
		runs = runs[:0]
		for _, lv := range levels {
			runs = append(runs, lv...)
		}
		sort.Float64s(runs)
		if f > 0 && f == flushes {
			break
		}
		// Every read probes every run, so a small run's pages are the hotter
		// ones and the pool keeps them first; the key sits in the largest.
		total, left := 0.0, frames
		for _, s := range runs {
			total += s
		}
		for i, s := range runs {
			m := miss(s/epp, left) * share
			left = math.Max(0, left-s/epp)
			r.ScanRO += m * (1 + rows/epp*s/total)
			if i < len(runs)-1 {
				m *= falsePos
			}
			r.RO += probe*share + m
		}
		if flushes == 0 {
			break
		}
		// Flush (the last one what is left) and restore the level invariants;
		// a merged run holds no more than the records live by then.
		live := n + (end-n)*(f+1)/flushes
		levels = pol.Flush(levels, math.Min(c.Buffer, written-f*c.Buffer), func(in float64) float64 {
			moved += in
			return math.Min(in, live)
		})
	}
	r.UO, r.MO = (ww+moved/math.Max(written, 1)*(1+ww))/epp, 0
	for _, s := range runs { // what stands at the close; pages round up run by run
		r.MO += math.Ceil(s/epp) * (epp + 1) / end
	}
	return r
}

// Rank prices every candidate under t on p and orders the rows by cost,
// cheapest first, ties by label.
func Rank(t Traffic, p Params, cost func(Row) float64) []Row {
	rows := make([]Row, len(candidates))
	for i, c := range candidates {
		rows[i] = c.Price(t, p)
	}
	sort.Slice(rows, func(i, j int) bool {
		if ci, cj := cost(rows[i]), cost(rows[j]); ci != cj {
			return ci < cj
		}
		return rows[i].Config.String() < rows[j].Config.String()
	})
	return rows
}
