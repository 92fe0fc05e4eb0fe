package faults

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
)

// opStream seeds the workload generator of the checker, distinct from the
// injector's planStream so op choice and fault choice are independent.
// crashStream seeds the crash-point draw, distinct from both so the workload
// stream stays a pure function of the seed.
const (
	opStream    = 0xc4a5
	crashStream = 0xc4a6
)

// The storage stack every check runs on: small pages and a small pool keep
// plenty of state volatile at the crash.
const (
	checkPageSize  = 512
	checkPoolPages = 8
)

// Durability is the contract an access method declares for crash recovery.
// Every contract is one floor version of the checker's acknowledged-op log:
// after recovery each key must hold the state it had at the floor, a state it
// held after it, or the state of the op in flight at the crash (Byde &
// Twigg's versioned-dictionary reading). A structure without a write-ahead
// log is not wrong for losing buffered data, only for serving garbage.
type Durability int

const (
	// Lossy: the floor is the empty log. Any acknowledged op may be lost,
	// but nothing served may be garbage — a value no op ever wrote, or a
	// key no op ever created. The B+-tree (no WAL; in-place page writes)
	// declares Lossy.
	Lossy Durability = iota
	// DurableToFlush: the floor is the log at the last fully-successful
	// Flush (all dirty frames written back). The LSM with a manifest
	// declares DurableToFlush.
	DurableToFlush
	// DurableToCommit: the floor is the method's committed watermark
	// (Committer.Committed, sampled by the checker after each acknowledged
	// op and each flush). With per-op commits this is every acknowledged op;
	// with group commit the un-committed tail of the current batch is the
	// only exposure. The write-ahead-logged structures declare
	// DurableToCommit.
	DurableToCommit
)

// Committer is implemented by methods whose durability is defined by a
// commit watermark (a write-ahead log): Committed returns the number of
// acknowledged mutations, in acknowledgement order, that are already
// durable. The checker samples it to learn which prefix of the acked
// sequence the DurableToCommit contract covers.
type Committer interface {
	Committed() uint64
}

// String names the contract.
func (d Durability) String() string {
	if d >= 0 && int(d) < len(durabilityNames) {
		return durabilityNames[d]
	}
	return fmt.Sprintf("durability(%d)", int(d))
}

var durabilityNames = [...]string{"lossy", "durable-to-flush", "durable-to-commit"}

// Verdict is the outcome of one crash-consistency check.
type Verdict int

const (
	// NoCrash: the crash point never fired within the op budget; nothing
	// was verified. Usually means CrashAtWrite was set past the workload's
	// total write count.
	NoCrash Verdict = iota
	// Recovered: reopen succeeded and the declared contract held.
	Recovered
	// FailedLoudly: reopen returned an error instead of a structure — the
	// acceptable outcome when the surviving image is beyond repair, provided
	// the contract's floor is still the empty log.
	FailedLoudly
	// NoRecovery: the subject declares no recovery path (Reopen is nil).
	NoRecovery
	// Violated: the contract was broken — a key is in a state it never held
	// at or after the floor, or reopen failed loudly after promising the
	// floor back.
	Violated
)

// String names the verdict as printed by the chaos experiment.
func (v Verdict) String() string {
	if v >= 0 && int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

var verdictNames = [...]string{"no-crash", "recovered", "failed-loudly", "no-recovery", "VIOLATED"}

// Subject describes one access method under crash test: how to build it on
// a fresh storage stack and how to recover it from a surviving image.
type Subject struct {
	// Name labels the subject in experiment rows and repro lines.
	Name string
	// Open builds a fresh, empty instance over pool.
	Open func(pool *storage.BufferPool) (core.AccessMethod, error)
	// Reopen recovers an instance from the device image under pool after a
	// crash (the pool is fresh and empty; the device holds whatever the
	// last successful writes left). It must return an error — fail loudly
	// — rather than a structure that would serve garbage. nil declares
	// that the method has no recovery path.
	Reopen func(pool *storage.BufferPool) (core.AccessMethod, error)
	// Durability is the contract Reopen is held to.
	Durability Durability
}

// checkFlushEvery is the checker's checkpoint cadence in ops. It is fixed,
// not a share of Ops, so a shorter trial is a prefix of the same seed's
// longer one: a failing trial shrinks by lowering Ops.
const checkFlushEvery = 100

// CheckConfig parameterizes one crash-consistency check.
type CheckConfig struct {
	// Seed drives both the workload and the injected crash point.
	Seed uint64
	// Ops is the number of ops to drive before giving up on crashing (the
	// op loop stops early at the crash). About half insert fresh keys, the
	// rest update or delete a live one; every checkFlushEvery ops the
	// checker checkpoints: core.Flush, then a dirty-count verification.
	// 0 means 400.
	Ops int
	// CrashAtWrite pins the crash to a 1-based device write index; 0 first
	// calibrates the workload's total write count with a fault-free dry run,
	// then draws a crash point inside that range from Seed — so an
	// unpinned check always crashes somewhere the workload actually writes.
	CrashAtWrite uint64
}

// CheckResult reports what one crash-consistency check observed.
type CheckResult struct {
	Verdict Verdict
	// CrashWrite is the device write index the crash fired at (0 if it
	// never fired).
	CrashWrite uint64
	// Acked counts ops acknowledged before the crash and Keys the distinct
	// keys they touched; Checkpointed counts the acked ops covered by the
	// last fully-successful flush; Survived counts keys recovered in their
	// latest acknowledged state, or in the in-flight op's that supersedes
	// it (a deleted key survives by staying gone).
	Acked, Keys, Checkpointed, Survived int
	// Committed counts acked ops covered by the method's committed
	// watermark at the crash (0 unless the subject implements Committer).
	Committed int
	// Detail explains a Violated or FailedLoudly verdict.
	Detail string
}

// String renders the result as one stable line, e.g.
// "recovered (crash@w87, acked 120, checkpointed 100, survived 61/64)". Only
// a reopened structure has a survival count to print.
func (r CheckResult) String() string {
	s := r.Verdict.String()
	if r.CrashWrite != 0 {
		s += fmt.Sprintf(" (crash@w%d, acked %d", r.CrashWrite, r.Acked)
		// Committed appears only for Committer subjects.
		if r.Committed > 0 {
			s += fmt.Sprintf(", committed %d", r.Committed)
		}
		s += fmt.Sprintf(", checkpointed %d", r.Checkpointed)
		if r.Verdict == Recovered || r.Verdict == Violated {
			s += fmt.Sprintf(", survived %d/%d", r.Survived, r.Keys)
		}
		s += ")"
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// ackedOp is one entry of the checker's op log: after it, key holds val, or
// is absent if del (val is then 0).
type ackedOp struct {
	key core.Key
	val core.Value
	del bool
}

// trial is one pass of the checker's workload over a fresh storage stack.
type trial struct {
	dev  *storage.Device
	pool *storage.BufferPool
	m    core.AccessMethod // nil if Open crashed

	// log holds every acknowledged op in acknowledgement order and keys the
	// keys they touched, in first-touch order (every key starts with an
	// insert). flushed is the log's length at the last fully-successful
	// flush and durable the highest Committed() observed: the committed
	// watermark.
	log     []ackedOp
	keys    []core.Key
	flushed int
	durable uint64
	// pending is the op in flight at the crash: never acknowledged (the
	// crash is instant process death), but its pages may be half-applied,
	// so recovery serving its state is atomicity, not garbage.
	pending *ackedOp
	crashed bool
}

// drive opens sub on a fresh stack over a device of the given medium that
// crashes at write crashAt (0: never) and makes ops seeded op attempts,
// checkpointing every checkFlushEvery, until the crash. The calibration dry
// run and the crash run are both this loop, so they draw the same ops. A
// non-empty violation is a contract breach seen on the way.
func drive(sub Subject, medium storage.Medium, seed uint64, ops int, crashAt uint64) (t *trial, violation string) {
	t = &trial{dev: storage.NewDevice(checkPageSize, medium, nil)}
	if crashAt > 0 {
		t.dev.SetInjector(New(Plan{Seed: seed, CrashAtWrite: crashAt}))
	}
	t.pool = storage.NewBufferPool(t.dev, checkPoolPages)
	m, err := sub.Open(t.pool)
	t.crashed = err != nil && (errors.Is(err, storage.ErrCrash) || t.dev.Crashed())
	if err != nil && !t.crashed {
		return t, fmt.Sprintf("open failed without a crash: %v", err)
	}
	t.m = m
	// Sampling the watermark after every acked op and every flush can only
	// lag the true one, which under-constrains the check — never the reverse.
	committer, _ := m.(Committer)
	sample := func() {
		if committer != nil && !t.dev.Crashed() {
			t.durable = max(t.durable, committer.Committed())
		}
	}
	rng := rand.New(rand.NewPCG(seed, opStream))
	used := make(map[core.Key]bool)
	var live []core.Key
	for op := 0; !t.crashed && op < ops; op++ {
		// Half the ops insert a fresh key; the rest update or delete the
		// live key live[i].
		next := ackedOp{val: rng.Uint64() >> 1} // keep clear of the LSM tombstone
		kind, i := rng.IntN(4), -1
		if kind >= 2 && len(live) > 0 {
			i = rng.IntN(len(live))
			next.key = live[i]
		}
		var acked bool
		switch {
		case i < 0:
			for next.key = rng.Uint64N(1 << 40); used[next.key]; next.key = rng.Uint64N(1 << 40) {
			}
			used[next.key] = true
			err = m.Insert(next.key, next.val)
			acked = err == nil
		case kind == 3:
			next = ackedOp{key: next.key, del: true}
			acked = m.Delete(next.key)
		default:
			acked = m.Update(next.key, next.val)
		}
		if t.dev.Crashed() {
			// Process death at the crash point: nothing after it counts,
			// even an op that "returned" into volatile memory.
			t.pending, t.crashed = &next, true
			break
		}
		switch {
		case acked:
			t.log = append(t.log, next)
			sample()
		case i >= 0:
			return t, fmt.Sprintf("op on live key %d reported it missing", next.key)
		default: // before the crash, no op of a crash-only plan may fail
			return t, fmt.Sprintf("insert of fresh key %d failed: %v", next.key, err)
		}
		switch {
		case acked && i < 0:
			t.keys = append(t.keys, next.key)
			live = append(live, next.key)
		case acked && next.del:
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if (op+1)%checkFlushEvery == 0 {
			core.Flush(m)
			if t.crashed = t.dev.Crashed(); !t.crashed {
				sample()
				if t.pool.DirtyCount() == 0 {
					t.flushed = len(t.log)
				}
			}
		}
	}
	t.durable = min(t.durable, uint64(len(t.log)))
	return t, ""
}

// CheckCrash drives the property: a random acknowledged op prefix, a crash
// at a seeded device write, a reopen from the surviving image — then the
// floor rule: every key must hold its state at the contract's floor, a state
// it held after the floor, or the state of the op in flight at the crash.
//
// The fault plan is crash-only (no transient or permanent faults), so every
// operation before the crash point behaves normally — the property isolates
// crash atomicity from fault tolerance, which the unit tests cover. The
// device is the flat SSD.
func CheckCrash(cfg CheckConfig, sub Subject) CheckResult {
	return checkCrash(cfg, sub, storage.SSD)
}

// checkCrash is CheckCrash on a device of the given medium. On the
// multi-queue SSD the pool's write-back groups, the log's group commits and
// the structures' read waves go to the device as batches, and the crash
// write may fall inside one: the pages before it are written, it and the
// pages after it are not.
func checkCrash(cfg CheckConfig, sub Subject, medium storage.Medium) CheckResult {
	if cfg.Ops == 0 {
		cfg.Ops = 400
	}
	crashAt := cfg.CrashAtWrite
	if crashAt == 0 {
		// Calibrate on a fault-free dry run, so the drawn crash point is
		// one the workload reaches.
		w := uint64(2)
		if dry, _ := drive(sub, medium, cfg.Seed, cfg.Ops, 0); dry.m != nil {
			core.Flush(dry.m)
			w = max(w, dry.dev.Stats().PageWrites)
		}
		crashRng := rand.New(rand.NewPCG(cfg.Seed, crashStream))
		crashAt = 1 + crashRng.Uint64N(w) // in [1, w]: guaranteed to fire
	}

	t, violation := drive(sub, medium, cfg.Seed, cfg.Ops, crashAt)
	if violation != "" {
		return CheckResult{Verdict: Violated, Detail: violation}
	}
	res := CheckResult{Acked: len(t.log), Keys: len(t.keys), Checkpointed: t.flushed, Committed: int(t.durable)}
	if !t.crashed {
		core.Flush(t.m) // one last chance for the crash point to fire
		if !t.dev.Crashed() {
			res.Verdict = NoCrash
			return res
		}
	}
	// The injector's real fire point (crashAt, under a crash-only plan).
	_, writes := t.dev.Injector().(*Injector).Ops()
	res.CrashWrite = min(crashAt, writes)

	// The crash: volatile state gone, device image frozen as-is.
	t.pool.Crash()
	t.dev.SetInjector(nil)
	t.dev.Reopen()

	if sub.Reopen == nil {
		res.Verdict = NoRecovery
		return res
	}
	floor := 0
	switch sub.Durability {
	case DurableToFlush:
		floor = t.flushed
	case DurableToCommit:
		floor = int(t.durable)
	}
	m2, err := sub.Reopen(storage.NewBufferPool(t.dev, checkPoolPages))
	if err != nil {
		res.Verdict, res.Detail = FailedLoudly, err.Error()
		if floor > 0 {
			res.Verdict = Violated
			res.Detail = fmt.Sprintf("reopen failed with %d acknowledged ops promised durable: %v", floor, err)
		}
		return res
	}
	var violations []string
	res.Survived, violations = t.judge(m2, floor)
	res.Verdict = Recovered
	if len(violations) > 0 {
		sort.Strings(violations)
		res.Verdict, res.Detail = Violated, fmt.Sprintf("%d violations, first: %s", len(violations), violations[0])
	}
	return res
}

// judge holds the recovered m to the floor rule over the log's first floor
// ops, and counts the keys recovered in their latest acknowledged state.
func (t *trial) judge(m core.AccessMethod, floor int) (survived int, violations []string) {
	// A key may hold its state at the floor (absent if no op before the
	// floor touched it), any state an op after the floor gave it, or the
	// in-flight op's.
	atFloor, latest := make(map[core.Key]ackedOp), make(map[core.Key]ackedOp)
	after := make(map[ackedOp]bool)
	for i, op := range t.log {
		if i < floor {
			atFloor[op.key] = op
		} else {
			after[op] = true
		}
		latest[op.key] = op
	}
	if t.pending != nil {
		after[*t.pending] = true
	}
	allowed := func(s ackedOp) bool {
		f, touched := atFloor[s.key]
		return after[s] || touched && f == s || !touched && s.del
	}

	recovered := make(map[core.Key]core.Value)
	m.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		recovered[k] = v
		if !allowed(ackedOp{key: k, val: v}) {
			violations = append(violations, fmt.Sprintf("key %d served with value %d, never its state at or after the floor", k, v))
		}
		return true
	})
	for _, k := range t.keys {
		// A key that may not be absent must be back, point-readable.
		if gone := (ackedOp{key: k, del: true}); !allowed(gone) {
			if v, ok := m.Get(k); !ok || !allowed(ackedOp{key: k, val: v}) {
				violations = append(violations, fmt.Sprintf("key %d lost (got %d,%v)", k, v, ok))
			}
		}
		// The in-flight op, applied, supersedes the latest acknowledged one.
		now := ackedOp{key: k, del: true}
		if v, ok := recovered[k]; ok {
			now = ackedOp{key: k, val: v}
		}
		if now == latest[k] || t.pending != nil && now == *t.pending {
			survived++
		}
	}
	return survived, violations
}
