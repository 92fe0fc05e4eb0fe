// Package serve is the concurrent front-end of the repository: a sharded,
// actor-style serving layer that partitions the keyspace across N shards,
// each owning one core.Instrumented access method pinned to the goroutine
// that built it. Clients submit batches of requests; the server splits each
// batch into per-shard sub-batches and delivers every sub-batch as a single
// mailbox message, so the channel-hop cost is amortized over the whole
// sub-batch rather than paid per operation.
//
// The design keeps two invariants the rest of the repository depends on:
//
//   - Single writer, many readers per shard. Every structure (and the
//     simulated Device and BufferPool beneath it) is built on its shard's
//     goroutine and mutated by no other goroutine, so the -tags racecheck
//     goroutine-binding assertions hold unchanged. With Config.Snapshots,
//     any number of client goroutines may additionally read epoch-stamped
//     immutable snapshots the writer publishes (see mvcc.go) — readers
//     touch frozen state and raw device pages only, never the structure or
//     the pool, and the racecheck build's page-generation stamps verify it.
//
//   - Truthful RUM accounting. Each shard's rum.Meter is a plain Meter on
//     the hot path (no atomics per byte); meters are snapshotted by the
//     shard goroutine when it exits and published through the happens-before
//     edge of Server.Stop, where they merge into one aggregate. Snapshot
//     readers charge private meters and merge each into their shard's one
//     reader meter when the read is done. The merged logical side is exact:
//     every request is accounted on exactly one shard.
//
// Ordering: requests from one client (one Do call at a time) are executed in
// submission order on every shard they touch, because a Do call enqueues at
// most one message per shard per MaxBatch chunk and mailboxes are FIFO.
// Requests from different concurrent clients interleave arbitrarily —
// callers that need deterministic outcomes partition the keyspace between
// clients (the serve experiment in internal/bench does exactly that).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Op is the repository's one op-kind enum. A Request carries the four point
// kinds below; a range scan is not a Request but a RangeScan call.
type Op = workload.OpKind

const (
	OpGet    = workload.OpGet
	OpInsert = workload.OpInsert
	OpUpdate = workload.OpUpdate
	OpDelete = workload.OpDelete
)

// Request is one operation submitted to the server. Value is ignored for
// OpGet and OpDelete.
type Request struct {
	Op    Op
	Key   core.Key
	Value core.Value
}

// Result is the outcome of one Request, written into the caller's slice by
// the shard that executed it. OK means: found (get), inserted without error
// (insert), or key existed (update, delete). Value is set for a found get.
type Result struct {
	Value core.Value
	OK    bool
}

// Exec executes one request against am — the one place a Request becomes a
// structure call; the shard loops (quiet and traced) and the bench package's
// sequential replays all run through it. It returns a whole Result: callers
// reuse res buffers across Do calls, so writing only OK would leak a stale
// Value from an earlier batch into this one's outcome.
func Exec(am *core.Instrumented, req Request) Result {
	var out Result
	switch req.Op {
	case OpGet:
		out.Value, out.OK = am.Get(req.Key)
	case OpInsert:
		out.OK = am.Insert(req.Key, req.Value) == nil
	case OpUpdate:
		out.OK = am.Update(req.Key, req.Value)
	case OpDelete:
		out.OK = am.Delete(req.Key)
	}
	return out
}

// Config sizes a Server. The zero value of every field selects a default.
type Config struct {
	// Shards is the number of keyspace partitions, each with its own
	// goroutine and structure instance (default 1).
	Shards int
	// MaxBatch caps the requests carried by one mailbox message; larger
	// per-shard sub-batches are split (default 256).
	MaxBatch int
	// Build constructs shard i's structure. It runs on the shard's own
	// goroutine — never on the caller's — which is what pins the structure,
	// and the storage stack under it, to a single owner. Required.
	Build func(shard int) *core.Instrumented
	// Trace enables request lifecycle tracing (queue/service decomposition,
	// per-shard phase histograms, the slow-op flight recorder). Nil — the
	// default — keeps the hot path free of clock reads and allocations.
	Trace *TraceConfig
	// Workload enables workload fingerprinting (mix/skew/working-set
	// windows, drift detection; see workload.go). Nil — the default — costs
	// the hot path one nil check per message.
	Workload *WorkloadConfig
	// Snapshots enables the MVCC read path (see mvcc.go): shards publish
	// epoch-stamped snapshots and pure-read sub-batches execute against them
	// on the caller's goroutine, bypassing the mailbox entirely. Build's
	// structures must support core.SnapshotReader (btree/lsm with
	// Config.Versions > 0); a shard whose structure does not keeps serving
	// reads through its mailbox, unchanged.
	Snapshots bool
	// StalenessOps caps the writes a shard applies between snapshot
	// publishes when Snapshots is on. The default 1 republishes after every
	// write-carrying message — strict mode, giving read-your-writes across
	// Do calls. Larger values amortize publish cost over up to StalenessOps
	// writes; snapshot reads may then be up to that many writes stale.
	StalenessOps int
}

func (c *Config) defaults() error {
	if c.Build == nil {
		return errors.New("serve: Config.Build is required")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("serve: %d shards; need at least 1", c.Shards)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.StalenessOps <= 0 {
		c.StalenessOps = 1
	}
	return nil
}

// mailboxDepth is each shard's mailbox capacity in messages: enough that a
// client's next sub-batch queues while the shard executes the current one,
// small enough that back-pressure reaches clients within a few batches.
const mailboxDepth = 4

// pollWindow bounds how long a shard with an empty mailbox keeps looking
// before it parks in the blocking receive: about one park/unpark round trip
// on the hosts this was measured on. A client of a closed loop is back with
// its next batch well inside it, and finds the shard awake.
const pollWindow = 50 * time.Microsecond

// ErrStopped is returned by calls made after Stop.
var ErrStopped = errors.New("serve: server is stopped")

// message is one mailbox delivery: a sub-batch of operations (idxs into the
// shared reqs/res slices), a bulk load, a flush barrier, or a range-scan
// collection. done is decremented once per message.
type message struct {
	kind msgKind

	// kindOps
	reqs []Request
	res  []Result
	idxs []uint32

	// kindBulk
	recs    []core.Record
	bulkErr *error

	// kindScan
	scan *scanPart

	// kindSnap
	snap *ShardReport

	// enqueuedAt is the Do call's send instant on the server's trace clock,
	// stamped only when tracing is enabled (zero otherwise); queue wait is
	// measured from it.
	enqueuedAt time.Duration

	done *completion
}

type msgKind uint8

const (
	kindOps msgKind = iota
	kindBulk
	kindFlush
	kindScan
	kindSnap
)

// scanPart collects one shard's contribution to a broadcast range scan.
type scanPart struct {
	lo, hi core.Key
	out    []core.Record
}

// Committer is implemented by write-ahead-logged structures (wal.Logged)
// whose acknowledged mutations become durable only at an explicit group
// commit. A shard whose structure implements it commits once at the end of
// every write-carrying mailbox message — the sub-batch is the commit group,
// so the sync cost is amortized over the whole message for free. Structures
// without it are unaffected.
type Committer interface {
	Commit() error
}

// completion counts outstanding messages of one client call; the channel
// closes when the last shard finishes.
type completion struct {
	pending atomic.Int32
	done    chan struct{}
}

func (c *completion) finish() {
	if c.pending.Add(-1) == 0 {
		close(c.done)
	}
}

// ShardReport is one shard's ledger, answered to a live Snapshot and
// published at Stop. Its numeric core — shard id, requests executed (Ops,
// bypassed snapshot reads included), meter, size, record count (Len),
// retained snapshot versions (SnapVersions), and the write-ahead-log ledger
// (WAL, nil when the structure is not logged) — is the embedded
// obs.ShardPoint, read on the shard goroutine and appended as-is to the live
// telemetry ring.
type ShardReport struct {
	obs.ShardPoint
	// Name is the structure the shard serves.
	Name string
	// Phases is the shard's lifecycle decomposition (queue/service/batch
	// histograms, exemplars, and the storage-event ledger) — nil when tracing
	// is disabled, and nil in the report of a shard that died mid-run: a dead
	// shard publishes its error, never partial phase records.
	Phases *obs.PhaseSnapshot
	// Workload is the shard's workload fingerprint snapshot (mix, skew,
	// working set, drift events) — nil when fingerprinting is disabled, and
	// nil in a dead shard's report.
	Workload *obs.WorkloadSnapshot
	// Err records a shard that died mid-run (a Build or operation panic).
	// Requests routed to a dead shard complete with zero Results.
	Err error
}

// shard is the per-partition actor state. Everything below mailbox is owned
// by the shard goroutine and read by others only after Stop's wg.Wait.
type shard struct {
	id      int
	mailbox chan message
	ops     uint64
	report  ShardReport
	// rec is the shard's phase recorder (nil when tracing is disabled),
	// owned by the shard goroutine like everything else here; slow is the
	// server-wide flight recorder it offers traces to; wrec is the shard's
	// workload fingerprinter (nil when fingerprinting is disabled).
	rec  *obs.PhaseRecorder
	slow *obs.SlowLog
	wrec *obs.WorkloadRecorder
	// commit is the structure's group-commit hook (nil for structures that
	// are not write-ahead logged), asserted once after Build; prefetch says
	// whether the structure takes a message's keys as a core.Prefetcher hint,
	// gathered into msgKeys.
	commit   Committer
	prefetch bool
	msgKeys  []core.Key
	// pollSkip is the number of coming idle periods that park without polling,
	// set when a yield outlasted pollWindow (see poll); mbox counts what the
	// mailbox wait strategy did and what it cost.
	pollSkip int
	mbox     obs.MailboxPoint
	runKeys  []core.Key // a run of gets for GetBatch; grows to the longest run
	runVals  []core.Value
	runOks   []bool

	// MVCC state (Config.Snapshots; see mvcc.go). cur, bypassOps and
	// readMeter are the reader-facing atomics; everything else is
	// shard-goroutine-owned.
	cur          atomic.Pointer[core.Snapshot] // installed; the shard holds one reference
	bypassOps    atomic.Uint64                 // reads served off snapshots, mailbox bypassed
	readMeter    rum.AtomicMeter               // traffic those reads charged
	snapEvery    int                           // publish cadence in writes; 0 = MVCC off
	writesSince  int                           // writes applied since the last publish
	snapVersions int                           // SnapshotStats.Versions as of the last publish

	// clock is the server's trace clock, copied here so the traced op loop
	// chases no pointer. It sits last so that it does not push bypassOps,
	// which client goroutines add to, onto the cache line of writesSince,
	// which the shard writes on every write-carrying message.
	clock traceClock
}

// Server is the sharded serving front-end. All exported methods are safe for
// concurrent use by any number of client goroutines, except Stop, which must
// be called once, after every client call has returned.
type Server struct {
	cfg    Config
	shards []*shard
	slow   *obs.SlowLog // flight recorder; nil when tracing is disabled
	wg     sync.WaitGroup

	// readersActive gauges client goroutines currently executing snapshot
	// reads (the rum_reader_concurrency metric).
	readersActive atomic.Int64

	mu      sync.RWMutex // guards stopped against in-flight sends
	stopped bool

	// scratch recycles Do's partition buffers (*doScratch) between calls.
	scratch sync.Pool

	// clock is the one clock every traced instant is read from (zero when
	// tracing is disabled). Read-only after New, it sits past the contended
	// words above, like shard.clock.
	clock traceClock
}

// New starts cfg.Shards shard goroutines and returns the serving front-end.
// Build runs asynchronously on each shard's goroutine; requests submitted
// before a shard finishes building simply queue in its mailbox.
func New(cfg Config) (*Server, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	if tc := cfg.Trace; tc != nil {
		s.slow = obs.NewSlowLog(tc.slowK(), tc.SlowTTL)
		s.clock = newTraceClock()
	}
	for i := range s.shards {
		s.shards[i] = &shard{id: i, mailbox: make(chan message, mailboxDepth)}
	}
	s.wg.Add(len(s.shards))
	for _, sh := range s.shards {
		go s.runShard(sh)
	}
	return s, nil
}

// shardOf routes a key to its home shard with a finalizer-style mix so
// sequential and scattered key patterns both spread evenly. The mapping
// depends only on (key, shard count) — never on scheduling — so request
// routing is deterministic.
func (s *Server) shardOf(k core.Key) int {
	if len(s.shards) == 1 {
		return 0
	}
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(len(s.shards)))
}

// runShard is the actor loop: build the structure, then apply messages until
// the mailbox closes. A panic (in Build or in an operation) marks the shard
// dead and drains the mailbox, completing every remaining message so no
// client deadlocks; the error surfaces from Stop.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			sh.report.Err = fmt.Errorf("serve: shard %d: %v", sh.id, v)
			sh.report.Shard = sh.id
			sh.report.Ops = sh.ops + sh.bypassOps.Load()
			// Uninstall the snapshot so readers stop serving from a dead
			// shard and fall back to the mailbox (completing with zero
			// Results, like every other request here).
			sh.install(nil)
			for msg := range sh.mailbox {
				// A dead shard still answers snapshots — with its error
				// report — so a live telemetry plane sees the death instead
				// of hanging or reading zeros.
				if msg.kind == kindSnap {
					*msg.snap = sh.report
				}
				msg.done.finish()
			}
		}
	}()
	if tc := s.cfg.Trace; tc != nil {
		// The recorder is created (or fetched) on the shard goroutine before
		// Build runs, so a Build closure can pick it up — e.g. to thread it
		// into the storage stack as a hook — without crossing goroutines.
		if tc.Recorder != nil {
			sh.rec = tc.Recorder(sh.id)
		}
		if sh.rec == nil {
			sh.rec = obs.NewPhaseRecorder()
		}
		sh.slow, sh.clock = s.slow, s.clock
	}
	if wc := s.cfg.Workload; wc != nil {
		// Same contract as the phase recorder: created on the shard
		// goroutine before Build, single-owner afterwards.
		sh.wrec = obs.NewWorkloadRecorder(wc.WindowOps, wc.Keep)
	}
	am := s.cfg.Build(sh.id)
	sh.commit, _ = am.Unwrap().(Committer)
	_, sh.prefetch = am.Unwrap().(core.Prefetcher)
	if s.cfg.Snapshots {
		// The first publish (of the freshly built, possibly empty structure)
		// also probes snapshot support: a structure without it flips the
		// shard back to mailbox-only reads.
		sh.snapEvery = s.cfg.StalenessOps
		sh.publishSnap(am)
	}
	for msg, ok := sh.next(); ok; msg, ok = sh.next() {
		sh.apply(am, msg)
	}
	sh.install(nil)
	if sh.wrec != nil {
		// Force the final partial window out so the last phase of a run
		// shorter than a window still fingerprints deterministically.
		sh.wrec.Rotate()
	}
	sh.report = sh.ledger(am)
}

// next receives the shard's next message; ok is false once the mailbox is
// closed and drained. A queued message is taken without a clock read. On an
// empty mailbox the shard does not park at once: a parked shard costs its
// next client a futex wake and itself a reschedule, several times the service
// time of a sub-batch, and in a closed loop every sub-batch would pay it. It
// polls for up to pollWindow first (see poll), and only then blocks.
func (sh *shard) next() (message, bool) {
	select {
	case msg, ok := <-sh.mailbox:
		return msg, ok
	default:
	}
	sh.mbox.IdlePeriods++
	if sh.pollSkip > 0 {
		sh.pollSkip--
	} else if msg, ok, polled := sh.poll(); polled {
		return msg, ok
	}
	sh.mbox.Parked++
	msg, ok := <-sh.mailbox
	return msg, ok
}

// poll looks into the empty mailbox after each of a run of runtime.Gosched
// calls, for at most pollWindow; polled reports whether a look found a
// message (or the mailbox closed).
//
// It yields between looks and never spins: with more runnable goroutines
// than processors, the client whose batch the shard just completed needs the
// processor the shard is on. And it gets out of the way when yielding is not
// cheap: one yield that outlasts the whole window means other goroutines are
// queued for the processors, each good for a time slice, so the shard skips
// polling for as many further idle periods as that yield cost windows. A
// busy host thus pays one slow yield per that many periods, and the shard
// polls again as soon as the host lets a yield come back fast.
func (sh *shard) poll() (msg message, ok, polled bool) {
	start := time.Now()
	var waited time.Duration
	for waited < pollWindow && !polled {
		runtime.Gosched()
		select {
		case msg, ok = <-sh.mailbox:
			polled = true
		default:
		}
		yield := time.Since(start) - waited
		waited += yield
		if yield > pollWindow {
			sh.pollSkip = int(yield / pollWindow)
			sh.mbox.Backoffs++
		}
	}
	sh.mbox.PollNanos += uint64(waited)
	if polled && ok {
		sh.mbox.Polled++
	}
	return msg, ok, polled
}

// ledger (shard goroutine only) reads the shard's full report — the answer
// to a live Snapshot and, after the mailbox closes, the final Stop report.
// The meter, size, and record count are touched only by their single owner,
// so the -tags racecheck assertions hold and no lock shadows the hot path.
func (sh *shard) ledger(am *core.Instrumented) ShardReport {
	rep := ShardReport{
		ShardPoint: obs.ShardPoint{
			Shard:        sh.id,
			Ops:          sh.ops + sh.bypassOps.Load(),
			Meter:        sh.ledgerMeter(am),
			Size:         am.Size(),
			Len:          am.Len(),
			SnapVersions: sh.snapVersions,
			WAL:          walLedger(am),
			Mailbox:      sh.mbox,
		},
		Name: am.Name(),
	}
	if sh.rec != nil {
		rep.Phases = sh.rec.Snapshot()
	}
	if sh.wrec != nil {
		rep.Workload = sh.wrec.Snapshot()
	}
	return rep
}

// apply executes one message. The completion fires even if an operation
// panics (the panic then kills the shard via runShard's recover).
func (sh *shard) apply(am *core.Instrumented, msg message) {
	defer msg.done.finish()
	switch msg.kind {
	case kindOps:
		writes := sh.applyOps(am, &msg)
		sh.ops += uint64(len(msg.idxs))
		if sh.wrec != nil {
			// A separate pass after execution keeps the batch loop above
			// byte-for-byte identical to the unfingerprinted build.
			sh.recordOps(msg)
		}
		// Group commit before the deferred completion fires: when the
		// completion releases the client, every write it acknowledged OK is
		// already in the log. A failed commit poisons the log — the batch's
		// records were acked but not promised durable, and every later write
		// on this shard fails loudly — so the error is not re-raised here.
		if writes > 0 && sh.commit != nil {
			_ = sh.commit.Commit()
		}
		// Republish before the deferred completion fires: strict mode's
		// read-your-writes rides on this ordering.
		if sh.snapEvery > 0 {
			sh.noteWrites(am, writes)
		}
	case kindBulk:
		if err := am.BulkLoad(msg.recs); err != nil {
			*msg.bulkErr = fmt.Errorf("serve: shard %d bulkload: %w", sh.id, err)
		}
		if sh.commit != nil && len(msg.recs) > 0 {
			_ = sh.commit.Commit()
		}
		sh.noteWrites(am, len(msg.recs))
	case kindFlush:
		am.Flush()
		if sh.snapEvery > 0 {
			// Flush is a barrier; give readers the freshest possible view.
			sh.publishSnap(am)
		}
	case kindScan:
		p := msg.scan
		am.RangeScan(p.lo, p.hi, func(k core.Key, v core.Value) bool {
			p.out = append(p.out, core.Record{Key: k, Value: v})
			return true
		})
		if sh.wrec != nil {
			sh.wrec.RecordScan(len(p.out))
		}
	case kindSnap:
		// The write is published to the requester through the completion's
		// channel-close edge.
		*msg.snap = sh.ledger(am)
	}
}

// applyOps is apply's kindOps loop: each run of consecutive gets is one
// GetBatch (getRun), any other op a run of its own through Exec, and a traced
// shard observes each run (observeRun). A Prefetcher first gets every key of
// the message as one hint, inside the first run, so that a traced run's
// device work still adds up to the shard's. It returns the message's write
// count.
func (sh *shard) applyOps(am *core.Instrumented, msg *message) (writes int) {
	var start time.Duration
	if sh.rec != nil {
		sh.rec.RecordBatch(len(msg.idxs))
		start = sh.clock.now()
	}
	for idxs := msg.idxs; len(idxs) > 0; {
		get, n := msg.reqs[idxs[0]].Op == OpGet, 1
		for get && n < len(idxs) && msg.reqs[idxs[n]].Op == OpGet {
			n++
		}
		var read, written uint64 // the run's meter baseline, when traced
		if sh.rec != nil {
			m := am.Meter()
			sh.rec.BeginOpWork()
			read, written = m.BaseRead+m.AuxRead, m.BaseWritten+m.AuxWritten
		}
		if sh.prefetch && len(idxs) == len(msg.idxs) {
			sh.prefetchKeys(am, msg)
		}
		if get {
			sh.getRun(am, msg, idxs[:n])
		} else {
			msg.res[idxs[0]] = Exec(am, msg.reqs[idxs[0]])
			writes++
		}
		if sh.rec != nil {
			start = sh.observeRun(am, msg, idxs[:n], start, read, written)
		}
		idxs = idxs[n:]
	}
	return writes
}

// prefetchKeys hands the message's keys to the structure's Prefetch.
func (sh *shard) prefetchKeys(am *core.Instrumented, msg *message) {
	keys := sh.msgKeys[:0]
	for _, i := range msg.idxs {
		keys = append(keys, msg.reqs[i].Key)
	}
	sh.msgKeys = keys
	am.Prefetch(keys)
}

// getRun sends a run of gets to GetBatch through the shard's run buffers.
func (sh *shard) getRun(am *core.Instrumented, msg *message, run []uint32) {
	if n := len(run); n > len(sh.runKeys) {
		sh.runKeys, sh.runVals, sh.runOks = make([]core.Key, n), make([]core.Value, n), make([]bool, n)
	}
	keys, vals, oks := sh.runKeys[:len(run)], sh.runVals[:len(run)], sh.runOks[:len(run)]
	for j, i := range run {
		keys[j] = msg.reqs[i].Key
	}
	am.GetBatch(keys, vals, oks)
	for j, i := range run {
		msg.res[i] = Result{Value: vals[j], OK: oks[j]}
	}
}

// Do executes a batch of requests and fills res (which must be the same
// length) with their outcomes. The call blocks until every request has
// executed; requests from this call are applied to each shard in slice
// order. Do may be called concurrently from any number of goroutines.
func (s *Server) Do(reqs []Request, res []Result) error {
	if len(reqs) != len(res) {
		return fmt.Errorf("serve: Do: %d requests but %d result slots", len(reqs), len(res))
	}
	if len(reqs) == 0 {
		return nil
	}
	nsh := len(s.shards)
	// Partition request indices by home shard: one counting pass, then a
	// placement pass into a single backing array, all in buffers recycled
	// between calls. The counting pass also classifies each shard's
	// sub-batch: pure-read sub-batches skip MaxBatch chunking (chunking
	// amortizes write latency; a read sub-batch split N ways pays N mailbox
	// messages for nothing), and under Config.Snapshots they bypass the
	// mailbox entirely when the shard has a published snapshot.
	sc := s.getScratch(len(reqs))
	counts, home, readOnly := sc.counts, sc.home, sc.readOnly
	for i := range readOnly {
		counts[i], readOnly[i] = 0, true
	}
	for i := range reqs {
		h := s.shardOf(reqs[i].Key)
		home[i] = uint32(h)
		counts[h]++
		if reqs[i].Op != OpGet {
			readOnly[h] = false
		}
	}
	idxBuf, starts, fill := sc.idx, sc.starts, sc.fill
	for i := 0; i < nsh; i++ {
		starts[i+1] = starts[i] + counts[i]
	}
	copy(fill, starts[:nsh])
	for i := range reqs {
		h := home[i]
		idxBuf[fill[h]] = uint32(i)
		fill[h]++
	}

	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		s.scratch.Put(sc)
		return ErrStopped
	}
	// Snapshot acquisition and message counting happen together, before any
	// send: the completion's pending count must be final before the first
	// shard can finish. bypass[sh] non-nil marks a sub-batch this goroutine
	// will execute itself; the entries are nil between calls.
	bypass, bypassed := sc.bypass, false
	total := 0
	for sh := 0; sh < nsh; sh++ {
		c := counts[sh]
		if c == 0 {
			continue
		}
		if readOnly[sh] {
			if s.cfg.Snapshots {
				if cs := s.shards[sh].acquireSnap(); cs != nil {
					bypass[sh] = cs
					bypassed = true
					continue
				}
			}
			total++ // one unchunked message
		} else {
			total += (c + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch
		}
	}
	// A call served entirely off snapshots sends nothing and waits for
	// nothing. Otherwise: one enqueue stamp per Do call when traced; zero (and
	// zero clock reads) when not.
	var comp *completion
	var enq time.Duration
	if total > 0 {
		comp = &completion{done: make(chan struct{})}
		comp.pending.Store(int32(total))
		if s.cfg.Trace != nil {
			enq = s.clock.now()
		}
	}
	for sh := 0; sh < nsh; sh++ {
		idxs := idxBuf[starts[sh]:starts[sh+1]]
		if len(idxs) == 0 || bypass[sh] != nil {
			continue
		}
		if readOnly[sh] {
			s.shards[sh].mailbox <- message{
				kind: kindOps, reqs: reqs, res: res, idxs: idxs,
				enqueuedAt: enq, done: comp,
			}
			continue
		}
		for len(idxs) > 0 {
			n := len(idxs)
			if n > s.cfg.MaxBatch {
				n = s.cfg.MaxBatch
			}
			s.shards[sh].mailbox <- message{
				kind: kindOps, reqs: reqs, res: res, idxs: idxs[:n],
				enqueuedAt: enq, done: comp,
			}
			idxs = idxs[n:]
		}
	}
	s.mu.RUnlock()

	// Execute bypassed sub-batches on this goroutine — the client is the
	// reader — overlapping with whatever the mailboxes are doing. A sub-batch
	// is one GetBatch call, so the snapshot may keep its independent lookups
	// in flight together; it charges the scratch's private meter, merged once
	// into the owning shard's reader meter.
	if bypassed {
		s.readersActive.Add(1)
		m := &sc.meter
		for sh, cs := range bypass {
			if cs == nil {
				continue
			}
			idxs := idxBuf[starts[sh]:starts[sh+1]]
			keys, vals, oks := sc.keys[:len(idxs)], sc.vals[:len(idxs)], sc.oks[:len(idxs)]
			for j, i := range idxs {
				keys[j] = reqs[i].Key
			}
			cs.GetBatch(keys, vals, oks, m)
			cs.Release()
			bypass[sh] = nil
			for j, i := range idxs {
				res[i] = Result{Value: vals[j], OK: oks[j]}
			}
			s.shards[sh].readMeter.Merge(*m)
			m.Reset()
			s.shards[sh].bypassOps.Add(uint64(len(idxs)))
		}
		s.readersActive.Add(-1)
	}
	if total > 0 {
		<-comp.done
	}
	// The messages aliased sc.idx: it goes back only now that every shard is
	// done with them.
	s.scratch.Put(sc)
	return nil
}

// doScratch is the working memory of one Do call: the per-shard tallies of
// the partition, and the per-request home and index arrays, which grow to
// the largest batch seen.
type doScratch struct {
	counts   []int // requests per shard
	starts   []int // sub-batch offsets into idx, one past the last shard too
	fill     []int // placement cursors
	readOnly []bool
	bypass   []core.Snapshot
	home     []uint32 // home shard of each request
	idx      []uint32 // request indices grouped by shard
	// One bypassed sub-batch at a time, gathered for Snapshot.GetBatch, and the
	// meter it charges, zero between calls. Pooled rather than on Do's stack:
	// what is passed through the interface escapes.
	keys  []core.Key
	vals  []core.Value
	oks   []bool
	meter rum.Meter
}

// getScratch returns a scratch sized for n requests, recycled if one is free.
func (s *Server) getScratch(n int) *doScratch {
	sc, _ := s.scratch.Get().(*doScratch)
	if sc == nil {
		nsh := len(s.shards)
		sc = &doScratch{
			counts: make([]int, nsh), starts: make([]int, nsh+1), fill: make([]int, nsh),
			readOnly: make([]bool, nsh), bypass: make([]core.Snapshot, nsh),
		}
	}
	if cap(sc.home) < n {
		sc.home, sc.idx = make([]uint32, n), make([]uint32, n)
		if s.cfg.Snapshots {
			sc.keys, sc.vals, sc.oks = make([]core.Key, n), make([]core.Value, n), make([]bool, n)
		}
	}
	sc.home, sc.idx = sc.home[:n], sc.idx[:n]
	return sc
}

// broadcast sends one message per shard (sharing a completion) and waits.
func (s *Server) broadcast(prepare func(shard int) message) error {
	comp := &completion{done: make(chan struct{})}
	comp.pending.Store(int32(len(s.shards)))
	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return ErrStopped
	}
	for i, sh := range s.shards {
		m := prepare(i)
		m.done = comp
		sh.mailbox <- m
	}
	s.mu.RUnlock()
	<-comp.done
	return nil
}

// Preload bulk-loads recs, which must be sorted by key and duplicate-free,
// splitting them across shards by key route. Each shard bulk-loads its
// (still sorted) subset through its structure's BulkLoad path.
func (s *Server) Preload(recs []core.Record) error {
	parts := make([][]core.Record, len(s.shards))
	for _, r := range recs {
		h := s.shardOf(r.Key)
		parts[h] = append(parts[h], r)
	}
	errs := make([]error, len(s.shards))
	if err := s.broadcast(func(i int) message {
		return message{kind: kindBulk, recs: parts[i], bulkErr: &errs[i]}
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush forces every shard's buffered writes down to its device — a
// broadcast barrier: when Flush returns, all prior requests of this caller
// have executed and every shard has flushed.
func (s *Server) Flush() error {
	return s.broadcast(func(int) message { return message{kind: kindFlush} })
}

// Snapshot reads every shard's live ledger — meter, size, record count,
// operations executed — without stopping the server: a broadcast message
// that each shard answers on its own goroutine between batches. Snapshots
// are non-destructive (no counter resets, no barriers on other shards'
// traffic) and monotone per shard: each shard's counters in a later
// snapshot are ≥ those in an earlier one, and the final Stop report equals
// the last snapshot plus whatever executed in between. The reports are
// Aggregate-compatible.
//
// The snapshot is a per-shard-consistent cut, not a global one: shard A's
// ledger may be read a few batches before shard B's. For rate math over
// rolling windows that skew is harmless — each shard's series is exact.
//
// Snapshot may be called concurrently with Do/Flush/RangeScan from any
// goroutine. After Stop it returns ErrStopped; a shard that died mid-run
// answers with its error report, surfaced in the returned error while live
// shards still report real state.
func (s *Server) Snapshot() ([]ShardReport, error) {
	reports := make([]ShardReport, len(s.shards))
	if err := s.broadcast(func(i int) message {
		return message{kind: kindSnap, snap: &reports[i]}
	}); err != nil {
		return nil, err
	}
	var err error
	for i := range reports {
		if reports[i].Err != nil && err == nil {
			err = reports[i].Err
		}
	}
	return reports, err
}

// RangeScan runs a broadcast range query: every shard collects its records
// in [lo, hi], the parts are merged and sorted by key, and emit is called in
// ascending key order until it returns false. It returns the number of
// records emitted. Unlike a single-structure scan, the collection is not
// streamed: shards gather their full contribution before the merge, so emit
// stopping early saves emission, not shard work.
func (s *Server) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	if s.cfg.Snapshots {
		// Serve the scan from snapshots on this goroutine when every shard
		// has one (see mvcc.go); otherwise fall through to the broadcast.
		if n, ok := s.snapshotScan(lo, hi, emit); ok {
			return n
		}
	}
	parts := make([]*scanPart, len(s.shards))
	if err := s.broadcast(func(i int) message {
		parts[i] = &scanPart{lo: lo, hi: hi}
		return message{kind: kindScan, scan: parts[i]}
	}); err != nil {
		return 0
	}
	var all []core.Record
	for _, p := range parts {
		all = append(all, p.out...)
	}
	return emitSorted(all, emit)
}

// emitSorted is the merge step of a broadcast scan, mailbox or snapshot:
// hash routing scatters key order across shards, so one sort restores it
// (and tolerates structures whose per-shard scan order is unsorted); then
// emit runs in ascending key order until it declines.
func emitSorted(all []core.Record, emit func(core.Key, core.Value) bool) int {
	core.SortRecords(all)
	n := 0
	for _, r := range all {
		if !emit(r.Key, r.Value) {
			break
		}
		n++
	}
	return n
}

// Stop closes every mailbox, waits for the shard goroutines to exit, and
// returns the per-shard reports in shard order. It must be called exactly
// once, after all client calls have returned; the reported error joins any
// shard that died mid-run. Calling any method after Stop returns ErrStopped
// (or its zero-value equivalent).
func (s *Server) Stop() ([]ShardReport, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, ErrStopped
	}
	s.stopped = true
	for _, sh := range s.shards {
		close(sh.mailbox)
	}
	s.mu.Unlock()
	s.wg.Wait()
	reports := make([]ShardReport, len(s.shards))
	var err error
	for i, sh := range s.shards {
		reports[i] = sh.report
		if sh.report.Err != nil && err == nil {
			err = sh.report.Err
		}
	}
	return reports, err
}

// walLedger reads the structure's log counters into an obs.WALPoint when it
// is write-ahead logged; nil for every other structure.
func walLedger(am *core.Instrumented) *obs.WALPoint {
	lg, ok := am.Unwrap().(*wal.Logged)
	if !ok {
		return nil
	}
	st := lg.Stats()
	return &obs.WALPoint{
		Committed:         lg.Committed(),
		Commits:           st.Commits,
		Syncs:             st.Syncs,
		Checkpoints:       st.Checkpoints,
		LogPagesWritten:   st.LogPagesWritten,
		LogBytesWritten:   st.LogBytesWritten,
		PagesRecycled:     st.PagesRecycled,
		CheckpointRecords: st.CheckpointRecords,
		CheckpointNanos:   st.CheckpointNanos,
		LiveLogPages:      st.LiveLogPages,
		OverlayRecords:    st.OverlayRecords,
	}
}

// Aggregate merges per-shard reports into the server-wide ledger: summed
// meters (exact on the logical side — every request executed on exactly one
// shard), summed sizes, and the total record count.
func Aggregate(reports []ShardReport) (rum.Meter, rum.SizeInfo, int) {
	var m rum.Meter
	var sz rum.SizeInfo
	n := 0
	for _, r := range reports {
		m.Add(r.Meter)
		sz = sz.Add(r.Size)
		n += r.Len
	}
	return m, sz, n
}
