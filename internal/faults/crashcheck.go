package faults

import (
	"errors"
	"fmt"
	"maps"
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
// The checker holds the method to exactly what it promises — a structure
// without a write-ahead log is not wrong for losing buffered data, only for
// serving garbage.
type Durability int

const (
	// Lossy promises only no-garbage: after recovery every record served
	// must have been acknowledged before the crash with that exact value,
	// but any amount of acknowledged data may be missing. The B+-tree (no
	// WAL; in-place page writes) declares Lossy.
	Lossy Durability = iota
	// DurableToFlush promises that every write acknowledged before the
	// last fully-successful Flush (all dirty frames written back) survives
	// recovery, plus no-garbage for everything after. The LSM with a
	// manifest declares DurableToFlush.
	DurableToFlush
	// DurableToCommit promises that every write covered by the method's
	// committed watermark (Committer.Committed, sampled by the checker after
	// each acknowledged op and each flush) survives recovery, plus
	// no-garbage for everything after. With per-op commits this is full
	// durability of every acknowledged write; with group commit the
	// un-committed tail of the current batch is the only exposure. The
	// write-ahead-logged structures declare DurableToCommit.
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
	switch d {
	case Lossy:
		return "lossy"
	case DurableToFlush:
		return "durable-to-flush"
	case DurableToCommit:
		return "durable-to-commit"
	default:
		return fmt.Sprintf("durability(%d)", int(d))
	}
}

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
	// acceptable outcome when the surviving image is beyond repair,
	// provided the contract promised nothing about it (Lossy), or nothing
	// had been checkpointed yet (DurableToFlush).
	FailedLoudly
	// NoRecovery: the subject declares no recovery path (Reopen is nil).
	NoRecovery
	// Violated: the contract was broken — a checkpointed record is gone, a
	// recovered record was never acknowledged, or reopen failed loudly
	// after promising checkpointed data back.
	Violated
)

// String names the verdict as printed by the chaos experiment.
func (v Verdict) String() string {
	switch v {
	case NoCrash:
		return "no-crash"
	case Recovered:
		return "recovered"
	case FailedLoudly:
		return "failed-loudly"
	case NoRecovery:
		return "no-recovery"
	case Violated:
		return "VIOLATED"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Acceptable reports whether the verdict satisfies "recovers or fails
// loudly" — everything except Violated.
func (v Verdict) Acceptable() bool { return v != Violated }

// Subject describes one access method under crash test: how to build it on
// a fresh storage stack and how to recover it from a surviving image.
type Subject struct {
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

// CheckConfig parameterizes one crash-consistency check.
type CheckConfig struct {
	// Seed drives both the workload and the injected crash point.
	Seed uint64
	// Ops is the number of insert attempts to drive before giving up on
	// crashing (the op loop stops early at the crash); every Ops/4 attempts
	// (at least 1) the checker checkpoints: core.Flush, then a dirty-count
	// verification. 0 means 400.
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
	// Acked counts inserts acknowledged before the crash; Checkpointed
	// counts those covered by the last fully-successful flush; Survived
	// counts acked records served correctly after recovery.
	Acked, Checkpointed, Survived int
	// Committed counts acked inserts covered by the method's committed
	// watermark at the crash (0 unless the subject implements Committer).
	Committed int
	// Detail explains a Violated or FailedLoudly verdict.
	Detail string
}

// String renders the result as one stable line, e.g.
// "recovered (crash@w87, acked 120, checkpointed 64, survived 64/120)".
func (r CheckResult) String() string {
	s := r.Verdict.String()
	if r.CrashWrite != 0 {
		// Committed appears only for Committer subjects, so the historical
		// lossy/durable-to-flush lines render byte-identically.
		if r.Committed > 0 {
			s += fmt.Sprintf(" (crash@w%d, acked %d, committed %d, checkpointed %d, survived %d/%d)",
				r.CrashWrite, r.Acked, r.Committed, r.Checkpointed, r.Survived, r.Acked)
		} else {
			s += fmt.Sprintf(" (crash@w%d, acked %d, checkpointed %d, survived %d/%d)",
				r.CrashWrite, r.Acked, r.Checkpointed, r.Survived, r.Acked)
		}
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// trial is one pass of the checker's workload over a fresh storage stack.
type trial struct {
	dev  *storage.Device
	pool *storage.BufferPool
	m    core.AccessMethod // nil if Open crashed

	model        map[core.Key]core.Value // every acknowledged insert
	checkpointed map[core.Key]core.Value // model at the last fully-successful flush
	// ackedSeq holds the acked inserts in acknowledgement order and durable
	// the highest Committed() observed: the committed watermark.
	ackedSeq []core.Record
	durable  uint64
	// pending is the record in flight when the crash fired: the crash
	// models instant process death, so its insert was never acknowledged —
	// but its pages may be half-applied, so recovery serving it (with
	// exactly this value) is atomicity, not garbage.
	pending *core.Record
	crashed bool
}

// drive opens sub on a fresh stack whose device crashes at write crashAt (0:
// never) and makes ops insert attempts of seeded random keys not yet
// acknowledged, checkpointing every ops/4, until the crash. The calibration
// dry run and the crash run are both this loop, so they draw the same ops. A
// non-empty violation is a contract breach seen on the way.
func drive(sub Subject, seed uint64, ops int, crashAt uint64) (t *trial, violation string) {
	t = &trial{dev: storage.NewDevice(checkPageSize, storage.SSD, nil), model: make(map[core.Key]core.Value)}
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
		if committer == nil || t.dev.Crashed() {
			return
		}
		t.durable = max(t.durable, committer.Committed())
	}
	rng := rand.New(rand.NewPCG(seed, opStream))
	flushEvery := max(1, ops/4)
	for op := 0; !t.crashed && op < ops; op++ {
		k := rng.Uint64N(1 << 40)
		if _, dup := t.model[k]; dup {
			continue
		}
		v := rng.Uint64() >> 1 // keep clear of the LSM tombstone
		err := m.Insert(k, v)
		if t.dev.Crashed() {
			// Process death at the crash point: nothing after it counts,
			// even an insert that "returned" into volatile memory.
			t.pending = &core.Record{Key: k, Value: v}
			t.crashed = true
			break
		}
		switch {
		case err == nil:
			t.model[k] = v
			t.ackedSeq = append(t.ackedSeq, core.Record{Key: k, Value: v})
			sample()
		case errors.Is(err, core.ErrKeyExists):
			// fine: not acknowledged, nothing promised
		case errors.Is(err, storage.ErrInjected):
			// crash-only plan: unreachable, but tolerated as un-acked
		default:
			return t, fmt.Sprintf("insert failed unexpectedly: %v", err)
		}
		if (op+1)%flushEvery == 0 {
			core.Flush(m)
			if t.dev.Crashed() {
				t.crashed = true
			} else {
				sample()
				if t.pool.DirtyCount() == 0 {
					t.checkpointed = maps.Clone(t.model)
				}
			}
		}
	}
	t.durable = min(t.durable, uint64(len(t.ackedSeq)))
	return t, ""
}

// CheckCrash drives the property: a random acknowledged op prefix, a crash
// at a seeded device write, a reopen from the surviving image — then every
// recovered record must have been acknowledged (no garbage), and, under
// DurableToFlush, every checkpointed record must have survived.
//
// The fault plan is crash-only (no transient or permanent faults), so every
// operation before the crash point behaves normally — the property isolates
// crash atomicity from fault tolerance, which the unit tests cover.
func CheckCrash(cfg CheckConfig, sub Subject) CheckResult {
	if cfg.Ops == 0 {
		cfg.Ops = 400
	}
	crashAt := cfg.CrashAtWrite
	if crashAt == 0 {
		// Calibrate on a fault-free dry run, so the drawn crash point is
		// one the workload reaches.
		w := uint64(2)
		if dry, _ := drive(sub, cfg.Seed, cfg.Ops, 0); dry.m != nil {
			core.Flush(dry.m)
			w = max(w, dry.dev.Stats().PageWrites)
		}
		crashRng := rand.New(rand.NewPCG(cfg.Seed, crashStream))
		crashAt = 1 + crashRng.Uint64N(w) // in [1, w]: guaranteed to fire
	}

	t, violation := drive(sub, cfg.Seed, cfg.Ops, crashAt)
	if violation != "" {
		return CheckResult{Verdict: Violated, Detail: violation}
	}
	res := CheckResult{Acked: len(t.model), Checkpointed: len(t.checkpointed), Committed: int(t.durable)}
	if !t.crashed {
		// One last chance for the crash point to fire: the closing flush.
		core.Flush(t.m)
		if !t.dev.Crashed() {
			res.Verdict = NoCrash
			return res
		}
	}
	_, writes := t.dev.Injector().(*Injector).Ops()
	res.CrashWrite = crashAt
	if writes < crashAt {
		// Crashed() latched without the injector firing cannot happen with
		// a crash-only plan; record the real fire point regardless.
		res.CrashWrite = writes
	}

	// The crash: volatile state gone, device image frozen as-is.
	t.pool.Crash()
	t.dev.SetInjector(nil)
	t.dev.Reopen()

	if sub.Reopen == nil {
		res.Verdict = NoRecovery
		return res
	}
	pool2 := storage.NewBufferPool(t.dev, checkPoolPages)
	m2, err := sub.Reopen(pool2)
	if err != nil {
		switch {
		case sub.Durability == DurableToFlush && len(t.checkpointed) > 0:
			res.Verdict = Violated
			res.Detail = fmt.Sprintf("reopen failed with %d checkpointed records promised durable: %v", len(t.checkpointed), err)
			return res
		case sub.Durability == DurableToCommit && t.durable > 0:
			res.Verdict = Violated
			res.Detail = fmt.Sprintf("reopen failed with %d committed records promised durable: %v", t.durable, err)
			return res
		}
		res.Verdict = FailedLoudly
		res.Detail = err.Error()
		return res
	}

	// No-garbage: everything served must match an acknowledged write.
	var violations []string
	recovered := make(map[core.Key]core.Value)
	m2.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		recovered[k] = v
		want, acked := t.model[k]
		switch {
		case acked && want == v:
		case t.pending != nil && k == t.pending.Key && v == t.pending.Value:
			// The in-flight record, fully applied: atomicity allows it.
		case !acked:
			violations = append(violations, fmt.Sprintf("garbage key %d (never acknowledged)", k))
		default:
			violations = append(violations, fmt.Sprintf("key %d recovered with value %d, acknowledged %d", k, v, want))
		}
		return true
	})
	for k, v := range recovered {
		if want, acked := t.model[k]; acked && want == v {
			res.Survived++
		}
	}
	// Durability: checkpointed records must be back, point-readable.
	if sub.Durability == DurableToFlush {
		for k, want := range t.checkpointed {
			if got, ok := m2.Get(k); !ok || got != want {
				violations = append(violations, fmt.Sprintf("checkpointed key %d lost (got %d,%v, want %d)", k, got, ok, want))
			}
		}
	}
	// Durability: the committed prefix of the acked sequence must be back.
	if sub.Durability == DurableToCommit {
		for _, rec := range t.ackedSeq[:t.durable] {
			if got, ok := m2.Get(rec.Key); !ok || got != rec.Value {
				violations = append(violations, fmt.Sprintf("committed key %d lost (got %d,%v, want %d)", rec.Key, got, ok, rec.Value))
			}
		}
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		res.Verdict = Violated
		res.Detail = fmt.Sprintf("%d violations, first: %s", len(violations), violations[0])
		return res
	}
	res.Verdict = Recovered
	return res
}
