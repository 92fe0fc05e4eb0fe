package bench

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
)

// This file is the serve experiment's workload generator, exported: the
// same deterministic, conflict-free client streams that drive the batch
// experiment (RunServe), bounded, also drive the live daemon (cmd/rumserve)
// open-ended. Each client owns a namespaced key range and draws from its own
// PCG stream, so every request's outcome is computable at generation time —
// the live serving layer is verified against predictions on every batch,
// exactly like the experiment.

// ServeMix is the operation mix of a generated client stream. Get, Insert,
// Update, Delete, and Scan are fractions of all requests (summing to ~1);
// GetMiss is the fraction of gets that target an absent key; ScanRows is
// the target rows per range scan (default 256 when scans are present).
// Scans are generated only by NextOp — Next serves scan-free mixes and its
// draw sequence is byte-stable against pre-scan builds.
type ServeMix struct {
	Get, Insert, Update, Delete float64
	GetMiss                     float64
	Scan                        float64
	ScanRows                    int
}

// DefaultServeMix returns the serve experiment's fixed mix: point-op heavy,
// no range scans.
func DefaultServeMix() ServeMix {
	return ServeMix{
		Get:     serveFracGet,
		Insert:  serveFracInsert,
		Update:  serveFracUpdate,
		Delete:  1 - serveFracGet - serveFracInsert - serveFracUpdate,
		GetMiss: serveGetMiss,
	}
}

// Validate checks the mix: every fraction in [0,1], op fractions summing to
// 1 within rounding slack.
func (m ServeMix) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"get", m.Get}, {"insert", m.Insert}, {"update", m.Update}, {"delete", m.Delete}, {"getmiss", m.GetMiss}, {"scan", m.Scan}} {
		if !(f.v >= 0 && f.v <= 1) { // NaN fails every comparison, so test for inside
			return fmt.Errorf("mix: %s=%g outside [0,1]", f.name, f.v)
		}
	}
	if m.ScanRows < 0 {
		return fmt.Errorf("mix: scanrows=%d negative", m.ScanRows)
	}
	sum := m.Get + m.Insert + m.Update + m.Delete + m.Scan
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("mix: op fractions sum to %g, want 1", sum)
	}
	return nil
}

// serveMixPresets are the named mixes ParseServeMix accepts in place of (or
// before) key=value pairs. The read-heavy ones are the MVCC experiment's
// operating points: snapshot reads only pay off when reads dominate.
var serveMixPresets = map[string]ServeMix{
	"read50":  {Get: 0.50, Insert: 0.20, Update: 0.15, Delete: 0.15, GetMiss: serveGetMiss},
	"read90":  {Get: 0.90, Insert: 0.04, Update: 0.03, Delete: 0.03, GetMiss: serveGetMiss},
	"read99":  {Get: 0.99, Insert: 0.004, Update: 0.003, Delete: 0.003, GetMiss: serveGetMiss},
	"read100": {Get: 1, GetMiss: serveGetMiss},
}

// ServeMixPresets lists the named mixes in sorted order, for usage text.
func ServeMixPresets() []string {
	names := make([]string, 0, len(serveMixPresets))
	for n := range serveMixPresets {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// ParseServeMix parses "get=0.5,insert=0.2,update=0.15,delete=0.15" (any
// subset; omitted ops default to the standard mix, getmiss included — or to
// zero when the named fractions already sum to 1, so "get=0.6,scan=0.4" is a
// whole mix) and validates the result. A preset name — "read99" and friends, see
// ServeMixPresets — may stand alone or lead the list, with key=value pairs
// after it overriding preset fields: "read99,getmiss=0.2".
func ParseServeMix(s string) (ServeMix, error) {
	m := DefaultServeMix()
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	parts := strings.Split(s, ",")
	if first := strings.TrimSpace(parts[0]); !strings.Contains(first, "=") && first != "" {
		p, ok := serveMixPresets[first]
		if !ok {
			return m, fmt.Errorf("mix: unknown preset %q (want %s, or key=value pairs)",
				first, strings.Join(ServeMixPresets(), "/"))
		}
		m = p
		parts = parts[1:]
	}
	fracs := map[string]*float64{"get": &m.Get, "insert": &m.Insert, "update": &m.Update, "delete": &m.Delete, "scan": &m.Scan}
	named := map[*float64]bool{}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("mix: %q is not key=value", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return m, fmt.Errorf("mix: %q: %v", part, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return m, fmt.Errorf("mix: %q is not a finite number", part)
		}
		switch key := strings.TrimSpace(kv[0]); key {
		case "getmiss":
			m.GetMiss = v
		case "scanrows":
			// int(v) would turn 0.5 into 0 — the default 256 rows, silently —
			// and is implementation-defined outside int's range.
			if v != math.Trunc(v) || v >= math.MaxInt || v <= math.MinInt {
				return m, fmt.Errorf("mix: scanrows=%s is not an integer row count", strings.TrimSpace(kv[1]))
			}
			m.ScanRows = int(v)
		default:
			p := fracs[key]
			if p == nil {
				return m, fmt.Errorf("mix: unknown op %q (want get/insert/update/delete/getmiss/scan/scanrows)", kv[0])
			}
			*p, named[p] = v, true
		}
	}
	sum := 0.0
	for p := range named {
		sum += *p
	}
	if sum >= 0.999 && sum <= 1.001 {
		for _, p := range fracs {
			if !named[p] {
				*p = 0
			}
		}
	}
	return m, m.Validate()
}

// String renders the mix in ParseServeMix form.
func (m ServeMix) String() string {
	s := fmt.Sprintf("get=%g,insert=%g,update=%g,delete=%g,getmiss=%g",
		m.Get, m.Insert, m.Update, m.Delete, m.GetMiss)
	if m.Scan > 0 {
		s += fmt.Sprintf(",scan=%g,scanrows=%d", m.Scan, m.scanRows())
	}
	return s
}

// scanRows returns the target rows per scan, defaulted.
func (m ServeMix) scanRows() int {
	if m.ScanRows > 0 {
		return m.ScanRows
	}
	return 256
}

// StreamGen deterministically generates one client's conflict-free request
// stream together with the precomputed outcome of every request. The
// client owns the keys tagged client+1 in the high bits, so streams from
// different clients never conflict and per-client submission order is the
// only order that matters. A StreamGen is single-goroutine, like the access
// methods it feeds.
type StreamGen struct {
	rng              *rand.Rand
	ns               core.Key
	tGet, tIns, tUpd float64
	miss             float64
	tScan            float64 // scan fraction; 0 keeps Next's exact draw sequence
	scanRows         int
	dist             KeyDist

	// keys holds every key the stream has drawn: its index into live and
	// vals while it is live, -1 once it is not (deleted, or a get-miss key
	// that was never inserted). live and vals are the model, in maintenance
	// order: inserts append, deletes swap-remove.
	keys map[core.Key]int32
	live []core.Key
	vals []core.Value

	// zipfPow caches dist.zipfPow(zipfN), the zipf inverse CDF's one power
	// that depends on the live count; zipfN 0 means not computed (a zipf pick
	// never sees an empty live set).
	zipfN   int
	zipfPow float64
}

// NewStreamGen returns client's generator for the given seed and mix, with
// uniform key popularity. The (seed, client) pair fully determines the
// stream.
func NewStreamGen(seed int64, client int, mix ServeMix) *StreamGen {
	return NewStreamGenDist(seed, client, mix, UniformDist())
}

// NewStreamGenDist is NewStreamGen with an explicit key-popularity
// distribution. A uniform dist reproduces NewStreamGen's streams byte for
// byte (same draws, same keys); skewed dists change which live keys the
// get/update/delete pickers favor, nothing else.
func NewStreamGenDist(seed int64, client int, mix ServeMix, dist KeyDist) *StreamGen {
	g := &StreamGen{
		rng:  rand.New(rand.NewPCG(uint64(seed), serveStreamSalt+uint64(client))),
		ns:   core.Key(client+1) << 44,
		keys: make(map[core.Key]int32),
	}
	g.SetPhase(mix, dist)
	return g
}

// fresh draws a key the stream has never drawn from the client's namespace.
// The caller records it in keys, as live or as -1.
func (g *StreamGen) fresh() core.Key {
	for {
		k := g.ns | core.Key(g.rng.Uint64()&(1<<40-1))
		if _, drawn := g.keys[k]; !drawn {
			return k
		}
	}
}

func (g *StreamGen) addLive(k core.Key, v core.Value) {
	g.keys[k] = int32(len(g.live))
	g.live = append(g.live, k)
	g.vals = append(g.vals, v)
}

// removeLive swap-removes the live key at index i.
func (g *StreamGen) removeLive(i int) {
	k, last := g.live[i], len(g.live)-1
	g.live[i], g.vals[i] = g.live[last], g.vals[last]
	g.keys[g.live[i]] = int32(i)
	g.keys[k] = -1
	g.live, g.vals = g.live[:last], g.vals[:last]
}

// pick returns the index of a random live key under the stream's
// distribution. The uniform path is exactly one IntN draw — byte-identical
// to the pre-distribution generator; zipf draws one Float64, hotspot two.
func (g *StreamGen) pick() (int, bool) {
	n := len(g.live)
	if n == 0 {
		return 0, false
	}
	switch g.dist.Kind {
	case "zipf":
		if n != g.zipfN {
			g.zipfN, g.zipfPow = n, g.dist.zipfPow(n)
		}
		return g.dist.rank(g.rng.Float64(), 0, n, g.zipfPow), true
	case "hotspot":
		return g.dist.rank(g.rng.Float64(), g.rng.Float64(), n, 0), true
	default:
		return g.rng.IntN(n), true
	}
}

// insert generates a fresh-key insert, which always succeeds.
func (g *StreamGen) insert() (serve.Request, serve.Result) {
	k := g.fresh()
	v := core.Value(g.rng.Uint64())
	g.addLive(k, v)
	return serve.Request{Op: serve.OpInsert, Key: k, Value: v}, serve.Result{OK: true}
}

// InitRecords generates n preload records (fresh keys, live in the model),
// returned sorted by key as BulkLoad requires. Call before the first Next.
func (g *StreamGen) InitRecords(n int) []core.Record {
	if len(g.keys) == 0 {
		g.keys = make(map[core.Key]int32, n)
	}
	g.live, g.vals = slices.Grow(g.live, n), slices.Grow(g.vals, n)
	recs := make([]core.Record, 0, n)
	for i := 0; i < n; i++ {
		k := g.fresh()
		v := core.Value(g.rng.Uint64())
		recs = append(recs, core.Record{Key: k, Value: v})
		g.addLive(k, v)
	}
	return MergeRecords(recs)
}

// Next generates the stream's next request and its exact expected outcome.
// The generator never exhausts: when the mix asks for an op the live set
// cannot supply (a hit on an empty model), it inserts instead.
func (g *StreamGen) Next() (serve.Request, serve.Result) {
	r := g.rng.Float64()
	switch {
	case r < g.tGet:
		if g.rng.Float64() < g.miss {
			k := g.fresh()
			g.keys[k] = -1
			return serve.Request{Op: serve.OpGet, Key: k}, serve.Result{}
		}
		if i, ok := g.pick(); ok {
			return serve.Request{Op: serve.OpGet, Key: g.live[i]}, serve.Result{Value: g.vals[i], OK: true}
		}
		return g.insert()
	case r < g.tIns:
		return g.insert()
	case r < g.tUpd:
		if i, ok := g.pick(); ok {
			v := core.Value(g.rng.Uint64())
			g.vals[i] = v
			return serve.Request{Op: serve.OpUpdate, Key: g.live[i], Value: v}, serve.Result{OK: true}
		}
		return g.insert()
	default:
		if i, ok := g.pick(); ok {
			k := g.live[i]
			g.removeLive(i)
			return serve.Request{Op: serve.OpDelete, Key: k}, serve.Result{OK: true}
		}
		return g.insert()
	}
}

// Fill generates the stream's next operations into reqs and want until they
// are full or the next operation is a range scan. It returns how many point
// requests it filled and, when it stopped at one, the scan as the batch's
// barrier (Scan set): a scan's row count is exact only once everything
// generated before it has executed. It never runs dry: bounded ends it.
func (g *StreamGen) Fill(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
	for i := range reqs {
		op := g.NextOp()
		if op.Scan {
			return i, op
		}
		reqs[i], want[i] = op.Req, op.Want
	}
	return len(reqs), StreamOp{}
}

// bounded is a StreamGen that runs dry after left operations, scans
// included: the serve and drift experiments' client stream.
type bounded struct {
	*StreamGen
	left int
}

func (b *bounded) Fill(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
	n, scan := b.StreamGen.Fill(reqs[:min(len(reqs), b.left)], want)
	b.left -= n
	if scan.Scan {
		b.left--
	}
	return n, scan
}

// SetPhase switches the stream's mix and key distribution in place, keeping
// the rng stream, the model, and the live set: the generator keeps producing
// verifiable ops for the same keyspace while the traffic's shape changes —
// the primitive the drift experiment builds its diurnal phases from.
// Deterministic: the phase switch consumes no draws, so the stream after it
// is a pure function of (seed, client, op index, phase schedule).
func (g *StreamGen) SetPhase(mix ServeMix, dist KeyDist) {
	// NextOp spends a first draw on scan-or-point, so the point thresholds
	// are normalized over the point mass: the residual above tUpd is delete
	// and nothing else. With Scan = 0 the scale is 1 — byte-identical to the
	// pre-scan thresholds.
	scale := 1.0
	if mix.Scan > 0 && mix.Scan < 1 {
		scale = 1 / (1 - mix.Scan)
	}
	g.tGet = mix.Get * scale
	g.tIns = (mix.Get + mix.Insert) * scale
	g.tUpd = (mix.Get + mix.Insert + mix.Update) * scale
	g.miss = mix.GetMiss
	g.tScan = mix.Scan
	g.scanRows = mix.scanRows()
	g.dist, g.zipfN = dist, 0
}

// StreamOp is one generated operation in the scan-capable stream form:
// either a point request with its exact expected outcome, or (Scan true) a
// range scan over [Lo, Hi] with its exact expected row count. Scan ranges
// stay inside the client's namespace, so concurrent clients' scans are as
// conflict-free as their point ops.
type StreamOp struct {
	Req  serve.Request
	Want serve.Result

	Scan     bool
	Lo, Hi   core.Key
	WantRows int
}

// NextOp generates the stream's next operation, scans included. For a
// scan-free mix the scan branch never draws, so NextOp's stream is byte
// identical to Next's; with Scan > 0 each op spends one extra Float64 draw
// deciding scan-or-point first.
func (g *StreamGen) NextOp() StreamOp {
	if g.tScan > 0 && g.rng.Float64() < g.tScan {
		return g.scanOp()
	}
	req, want := g.Next()
	return StreamOp{Req: req, Want: want}
}

// scanOp generates a range scan anchored at a random live key, sized so
// the range holds ~scanRows of this client's uniformly scattered keys, with
// the exact expected row count computed from the model. Falls back to an
// insert when nothing is live.
func (g *StreamGen) scanOp() StreamOp {
	n := len(g.live)
	if n == 0 {
		req, want := g.insert()
		return StreamOp{Req: req, Want: want}
	}
	anchor := g.live[g.rng.IntN(n)]
	const lowBits = 1<<40 - 1
	span := core.Key(float64(uint64(lowBits)) / float64(n) * float64(g.scanRows))
	lo := anchor
	hi := anchor + span
	if max := g.ns | lowBits; hi > max || hi < lo {
		hi = max
	}
	rows := 0
	for _, k := range g.live {
		if k >= lo && k <= hi {
			rows++
		}
	}
	return StreamOp{Scan: true, Lo: lo, Hi: hi, WantRows: rows}
}

// Live returns the number of records the stream currently leaves live — the
// expected record count of this client's keyspace slice.
func (g *StreamGen) Live() int { return len(g.live) }

// stableReadSalt separates the composition's read-or-write coin from the
// generators' own PCG streams.
const stableReadSalt = 0x57ab1e

// StableReadGen composes one client's stream for serving under relaxed
// snapshot staleness: a reader StreamGen whose namespace is preloaded and
// never written afterwards, and a writer StreamGen on a second namespace. A
// read off a snapshot any number of writes stale then still has an exact
// answer — the snapshot is stale only about keys no read asks for — which is
// the versioned-dictionary contract (a read at epoch v equals the model
// replayed to v) restricted to where every epoch agrees.
//
// A coin decides read or write per operation; the i-th read is the reader's
// i-th operation and the j-th write the writer's j-th, so the per-op stream
// is a function of (seed, client, mix) alone. Fill hands it out in pure
// batches — all reads or all writes, which is what lets the serving layer
// take the reads off the mailbox — as soon as either kind fills one: only
// the interleaving of reads with writes depends on the batch size, and no
// outcome depends on the interleaving.
type StableReadGen struct {
	reader, writer *StreamGen

	coin          *rand.Rand
	readFrac      float64
	left          int // operations still to draw; negative = unbounded
	reads, writes int // drawn, not yet handed out
}

// NewStableReadGen returns client's composition of clients for the given mix:
// gets and scans (with the mix's miss share and scan size) go to the reader
// on namespace client, inserts, updates and deletes in the mix's proportions
// to the writer on namespace clients+client. A positive ops bounds the stream:
// after that many operations Fill drains what is pending and returns zero.
func NewStableReadGen(seed int64, client, clients int, mix ServeMix, dist KeyDist, ops int) *StableReadGen {
	reads, writes := mix.Get+mix.Scan, mix.Insert+mix.Update+mix.Delete
	// A side the mix gives no share is never drawn; its generator's mix is moot.
	rmix := ServeMix{Get: 1, GetMiss: mix.GetMiss, ScanRows: mix.ScanRows}
	if reads > 0 {
		rmix.Get, rmix.Scan = mix.Get/reads, mix.Scan/reads
	}
	wmix := ServeMix{Insert: 1}
	if writes > 0 {
		wmix = ServeMix{Insert: mix.Insert / writes, Update: mix.Update / writes, Delete: mix.Delete / writes}
	}
	if ops <= 0 {
		ops = -1
	}
	return &StableReadGen{
		reader:   NewStreamGenDist(seed, client, rmix, dist),
		writer:   NewStreamGenDist(seed, clients+client, wmix, dist),
		coin:     rand.New(rand.NewPCG(uint64(seed), stableReadSalt+uint64(client))),
		readFrac: reads / (reads + writes),
		left:     ops,
	}
}

// InitRecords generates the n ≥ 1 preload records of the reader's namespace,
// the only keys the stream ever reads. Call before the first Fill.
func (g *StableReadGen) InitRecords(n int) []core.Record { return g.reader.InitRecords(n) }

// Live returns the records the stream leaves live across both namespaces.
func (g *StableReadGen) Live() int { return g.reader.Live() + g.writer.Live() }

// Fill hands out the composition's next pure batch, cut short (like
// StreamGen.Fill) at a reader scan. With one-element buffers it hands out the
// per-op stream itself.
func (g *StableReadGen) Fill(reqs []serve.Request, want []serve.Result) (int, StreamOp) {
	batch := len(reqs)
	for g.reads < batch && g.writes < batch && g.left != 0 {
		if g.left > 0 {
			g.left--
		}
		if g.coin.Float64() < g.readFrac {
			g.reads++
		} else {
			g.writes++
		}
	}
	// A full batch goes out first; once a bounded stream is drawn out, the
	// partial ones drain, writes before reads.
	src, pending := g.writer, &g.writes
	if g.reads >= batch || g.writes == 0 {
		src, pending = g.reader, &g.reads
	}
	n, scan := src.Fill(reqs[:min(batch, *pending)], want)
	*pending -= n
	if scan.Scan {
		*pending--
	}
	return n, scan
}

// MergeRecords sorts a combined preload slice by key, as BulkLoad and
// Server.Preload require. Client namespaces are disjoint, so concatenating
// per-client InitRecords and sorting is a true merge.
func MergeRecords(recs []core.Record) []core.Record {
	slices.SortFunc(recs, func(a, b core.Record) int { return cmp.Compare(a.Key, b.Key) })
	return recs
}
