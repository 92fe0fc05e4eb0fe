// Package faults is the deterministic fault-injection and crash-consistency
// layer: a seed-driven scheduler that decides, per device operation, whether
// to fail it — transiently, permanently, torn, or with a full crash — plus a
// property-based checker that verifies an access method recovers (or fails
// loudly) from a crash against its declared durability contract.
//
// The paper's Section 5 roadmap asks how access methods behave off the happy
// path: a structure's RUM position is only meaningful if it survives the
// device degrading under it. A Plan describes the misbehaviour declaratively
// (probabilities, fail-at-op schedules, a crash point); an Injector plays it
// back through the storage.FaultInjector interface armed on a
// storage.Device. Every decision comes from a PCG stream seeded by the plan,
// so a given (plan, operation history) pair always fails the same ops — the
// same determinism contract the parallel bench runner relies on. Plans are
// salted per run cell (Plan.Salted) so concurrent cells draw independent but
// reproducible fault streams regardless of execution order.
package faults

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// planStream is the second PCG seed word, fixed so a Plan's fault stream is
// a pure function of its Seed.
const planStream = 0x9e3779b97f4a7c15

// Plan declares a fault schedule. The zero value injects nothing. Plans are
// plain data: copy them freely, then arm an Injector built with New.
type Plan struct {
	// Seed drives every probabilistic decision. Two injectors built from
	// identical plans produce identical fault streams.
	Seed uint64
	// PRead is the per-read probability of a transient read fault
	// (retryable; the same page succeeds on a later attempt).
	PRead float64
	// PWrite is the per-write probability of a transient write fault.
	PWrite float64
	// PTorn is the probability that an injected transient write fault is
	// torn: a prefix of the page image reaches the medium before the error.
	PTorn float64
	// ReadFailAt lists 1-based read indices that fail permanently: the
	// page being read at that index becomes bad and every later access to
	// it fails (a grown media defect).
	ReadFailAt []uint64
	// WriteFailAt lists 1-based write indices that fail permanently,
	// marking the target page bad like ReadFailAt.
	WriteFailAt []uint64
	// CrashAtWrite, when non-zero, crashes the device at the 1-based write
	// of that index: the in-flight write never reaches the medium, the
	// device latches, and all volatile state is lost. The crash write is
	// deliberately clean — without page checksums a torn crash write is
	// indistinguishable from valid data, so tearing is exercised on the
	// transient path (PTorn), where the retry repairs it.
	CrashAtWrite uint64
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.PRead > 0 || p.PWrite > 0 || p.CrashAtWrite != 0 ||
		len(p.ReadFailAt) > 0 || len(p.WriteFailAt) > 0
}

// Salted derives the plan for one named run cell: same schedule, with the
// seed re-keyed by label. Cells salted by their (stable) enumeration label
// draw independent fault streams that do not depend on worker count or
// execution order — the parallel determinism contract.
func (p Plan) Salted(label string) Plan {
	h := fnv64(p.Seed, label)
	p.Seed = h
	p.ReadFailAt = append([]uint64(nil), p.ReadFailAt...)
	p.WriteFailAt = append([]uint64(nil), p.WriteFailAt...)
	return p
}

// fnv64 folds seed and label through FNV-1a.
func fnv64(seed uint64, label string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// String renders the plan in the canonical -faults flag syntax (only the
// fields that are set), e.g. "seed=1,p_read=0.01,crash=200".
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatUint(p.Seed, 10))
	if p.PRead > 0 {
		add("p_read", strconv.FormatFloat(p.PRead, 'g', -1, 64))
	}
	if p.PWrite > 0 {
		add("p_write", strconv.FormatFloat(p.PWrite, 'g', -1, 64))
	}
	if p.PTorn > 0 {
		add("p_torn", strconv.FormatFloat(p.PTorn, 'g', -1, 64))
	}
	if len(p.ReadFailAt) > 0 {
		add("read_fail_at", joinUints(p.ReadFailAt))
	}
	if len(p.WriteFailAt) > 0 {
		add("write_fail_at", joinUints(p.WriteFailAt))
	}
	if p.CrashAtWrite != 0 {
		add("crash", strconv.FormatUint(p.CrashAtWrite, 10))
	}
	return strings.Join(parts, ",")
}

func joinUints(xs []uint64) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = strconv.FormatUint(x, 10)
	}
	return strings.Join(ss, ";")
}

// ParsePlan parses the -faults flag syntax: comma-separated key=value pairs
// with keys seed, p_read, p_write, p_torn, crash, read_fail_at and
// write_fail_at (the *_fail_at lists are semicolon-separated op indices).
// An empty string parses to the inactive zero Plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "p_read":
			p.PRead, err = parseProb(v)
		case "p_write":
			p.PWrite, err = parseProb(v)
		case "p_torn":
			p.PTorn, err = parseProb(v)
		case "crash":
			p.CrashAtWrite, err = strconv.ParseUint(v, 10, 64)
		case "read_fail_at":
			p.ReadFailAt, err = parseUints(v)
		case "write_fail_at":
			p.WriteFailAt, err = parseUints(v)
		default:
			return Plan{}, fmt.Errorf("faults: unknown key %q (want seed, p_read, p_write, p_torn, crash, read_fail_at, write_fail_at)", k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	return p, nil
}

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) { // NaN fails every comparison, so test for inside
		return 0, fmt.Errorf("probability %g outside [0,1]", f)
	}
	return f, nil
}

func parseUints(v string) ([]uint64, error) {
	var out []uint64
	for _, s := range strings.Split(v, ";") {
		x, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Stats counts the faults an Injector has delivered, by kind.
type Stats struct {
	TransientReads  uint64 // retryable read faults injected
	TransientWrites uint64 // retryable write faults injected
	PermanentReads  uint64 // reads failed on (or creating) a bad page
	PermanentWrites uint64 // writes failed on (or creating) a bad page
	Torn            uint64 // write faults that persisted a partial page
	Crashes         uint64 // crash points fired (0 or 1 per injector)
}

// Injector plays a Plan back against one device, implementing
// storage.FaultInjector. Like the Device it is armed on, an Injector is
// single-owner: one injector per device per run cell, never shared.
//
// Transient faults are re-rolled independently on every attempt, so a retry
// of the same page can succeed; permanent faults mark the target page bad
// for the injector's lifetime. The crash point fires exactly once.
type Injector struct {
	plan    Plan
	rng     *rand.Rand
	reads   uint64
	writes  uint64
	bad     map[storage.PageID]struct{}
	crashed bool
	stats   Stats
}

// New builds an injector for plan. Identical plans yield identical injectors.
func New(plan Plan) *Injector {
	return &Injector{
		plan: plan,
		rng:  rand.New(rand.NewPCG(plan.Seed, planStream)),
		bad:  make(map[storage.PageID]struct{}),
	}
}

// Stats returns a copy of the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Ops returns how many reads and writes the injector has been consulted on.
func (in *Injector) Ops() (reads, writes uint64) { return in.reads, in.writes }

// failAt reports whether the sorted schedule contains op.
func failAt(schedule []uint64, op uint64) bool {
	i := sort.Search(len(schedule), func(i int) bool { return schedule[i] >= op })
	return i < len(schedule) && schedule[i] == op
}

// ReadFault implements storage.FaultInjector.
func (in *Injector) ReadFault(id storage.PageID) error {
	in.reads++
	if _, bad := in.bad[id]; bad {
		in.stats.PermanentReads++
		return fmt.Errorf("%w: permanent fault on bad page", storage.ErrInjected)
	}
	if failAt(in.plan.ReadFailAt, in.reads) {
		in.bad[id] = struct{}{}
		in.stats.PermanentReads++
		return fmt.Errorf("%w: permanent fault at read %d", storage.ErrInjected, in.reads)
	}
	if in.plan.PRead > 0 && in.rng.Float64() < in.plan.PRead {
		in.stats.TransientReads++
		return fmt.Errorf("%w at read %d", storage.ErrTransient, in.reads)
	}
	return nil
}

// WriteFault implements storage.FaultInjector.
func (in *Injector) WriteFault(id storage.PageID, pageSize int) (int, error) {
	in.writes++
	if in.plan.CrashAtWrite != 0 && in.writes == in.plan.CrashAtWrite && !in.crashed {
		in.crashed = true
		in.stats.Crashes++
		return 0, fmt.Errorf("%w at write %d", storage.ErrCrash, in.writes)
	}
	if _, bad := in.bad[id]; bad {
		in.stats.PermanentWrites++
		return 0, fmt.Errorf("%w: permanent fault on bad page", storage.ErrInjected)
	}
	if failAt(in.plan.WriteFailAt, in.writes) {
		in.bad[id] = struct{}{}
		in.stats.PermanentWrites++
		return 0, fmt.Errorf("%w: permanent fault at write %d", storage.ErrInjected, in.writes)
	}
	if in.plan.PWrite > 0 && in.rng.Float64() < in.plan.PWrite {
		in.stats.TransientWrites++
		if in.plan.PTorn > 0 && pageSize > 1 && in.rng.Float64() < in.plan.PTorn {
			in.stats.Torn++
			torn := 1 + in.rng.IntN(pageSize-1)
			return torn, fmt.Errorf("%w (torn) at write %d", storage.ErrTransient, in.writes)
		}
		return 0, fmt.Errorf("%w at write %d", storage.ErrTransient, in.writes)
	}
	return 0, nil
}
