package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder of the live serving plane: a fixed-size ring that
// retains the slowest-K recent request traces, each carrying the full
// lifecycle decomposition (queue wait, service time, device-charged work).
// Writers are the shard goroutines — admission is gated by one atomic load
// on the fast path (Admits), so an op faster than everything retained costs
// a single comparison and never has its trace assembled — and readers (the
// /debug/slow handler, the SIGINT final report) traverse the slots
// lock-free, exactly like obs.Rolling: every retained trace is an immutable
// heap object published through an atomic slot pointer.

// SlowTrace is one traced request's lifecycle record. Queue is the time
// from enqueue (the client's Do call stamping the message) to the moment
// the shard goroutine began executing this operation — mailbox wait plus
// in-batch wait behind earlier operations of the same message. Service is
// the operation's own execution time. Total = Queue + Service exactly (all
// three derive from the same monotonic clock readings), which is the
// decomposition invariant the serve tests hold property-style.
type SlowTrace struct {
	At    time.Time `json:"at"`    // completion instant
	Shard int       `json:"shard"` // shard that executed the op
	Op    string    `json:"op"`    // get / insert / update / delete
	Key   uint64    `json:"key"`
	Batch int       `json:"batch"` // ops carried by the same mailbox message
	Run   int       `json:"run"`   // ops that shared its clock span and device work; 1 alone

	Queue   time.Duration `json:"queue_ns"`
	Service time.Duration `json:"service_ns"`
	Total   time.Duration `json:"total_ns"`

	// Device-charged work attributed to the op's run: physical bytes from
	// the shard's meter delta (always present), and page/fault/retry counts
	// from the storage hook when the recorder is wired into the shard's
	// storage stack (zero otherwise).
	ReadBytes  uint64 `json:"read_bytes"`
	WriteBytes uint64 `json:"write_bytes"`
	Pages      uint64 `json:"pages"`
	Faults     uint64 `json:"faults"`
	Retries    uint64 `json:"retries"`
}

// String renders the trace's one-line report form, run= for a shared run.
func (t SlowTrace) String() string {
	s := fmt.Sprintf("%-6s key=%-20d shard=%d batch=%d total=%-10v queue=%-10v service=%-10v pages=%d faults=%d retries=%d",
		t.Op, t.Key, t.Shard, t.Batch, t.Total.Round(time.Microsecond),
		t.Queue.Round(time.Microsecond), t.Service.Round(time.Microsecond),
		t.Pages, t.Faults, t.Retries)
	if t.Run > 1 {
		s += fmt.Sprintf(" run=%d", t.Run)
	}
	return s
}

// SlowLog retains the K slowest recent traces. Offer may be called
// concurrently from any number of goroutines; Snapshot readers never block
// writers or each other. With a positive TTL a retained trace older than
// the TTL becomes evictable by any admitted trace, so a burst at startup
// cannot freeze the ring forever; with TTL zero the log is a pure
// slowest-K-since-reset record (deterministic, used by tests).
type SlowLog struct {
	slots []atomic.Pointer[SlowTrace]
	// floor is the admission gate read on the fast path: the smallest Total
	// (in ns) among retained traces once the ring is full, or -1 while any
	// slot is still empty. An op with Total <= floor is dropped with no lock.
	floor atomic.Int64
	// oldest is the earliest retained At (unix ns), maintained under mu; the
	// fast path compares it against the candidate's At so TTL eviction does
	// not force every offer through the lock.
	oldest atomic.Int64
	ttl    time.Duration

	mu sync.Mutex // serializes writers past the gate
}

// NewSlowLog returns a flight recorder retaining the k slowest traces
// (minimum 1). ttl <= 0 disables age-based eviction.
func NewSlowLog(k int, ttl time.Duration) *SlowLog {
	if k < 1 {
		k = 1
	}
	l := &SlowLog{slots: make([]atomic.Pointer[SlowTrace], k), ttl: ttl}
	l.floor.Store(-1)
	return l
}

// Admits is the admission gate, on integers alone: whether a trace with this
// total latency, completed at this instant (Unix nanoseconds), could be
// retained — a slot is empty, it is slower than the slowest-K floor, or (with
// a TTL) some retained trace has aged out. It is one atomic load and a
// comparison, so a shard asks before it assembles the trace at all; Offer
// settles races between admitted writers under the lock.
func (l *SlowLog) Admits(total time.Duration, at int64) bool {
	if f := l.floor.Load(); f >= 0 && int64(total) <= f {
		return l.ttl > 0 && at-l.oldest.Load() > int64(l.ttl)
	}
	return true
}

// Offer submits one trace; it is retained if Admits and no concurrent writer
// raised the floor past it first.
func (l *SlowLog) Offer(t SlowTrace) {
	at := t.At.UnixNano()
	if !l.Admits(t.Total, at) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Pick the victim slot: an empty slot beats an expired trace beats the
	// minimum-Total trace; an unexpired minimum only loses to a slower trace.
	victim, victimTotal := -1, int64(-1)
	expired := -1
	for i := range l.slots {
		p := l.slots[i].Load()
		if p == nil {
			victim = i
			break
		}
		if l.ttl > 0 && at-p.At.UnixNano() > int64(l.ttl) && expired < 0 {
			expired = i
		}
		if victimTotal < 0 || int64(p.Total) < victimTotal {
			victim, victimTotal = i, int64(p.Total)
		}
	}
	if p := l.slots[victim].Load(); p != nil {
		if expired >= 0 {
			victim = expired
		} else if int64(t.Total) <= victimTotal {
			return // raced with another writer; no longer above the floor
		}
	}
	// Copy to the heap only here: taking &t would make the parameter escape
	// and charge every rejected offer an allocation too.
	admitted := t
	l.slots[victim].Store(&admitted)
	// Recompute the admission floor and the oldest instant under the lock.
	floor, oldest := int64(-1), int64(0)
	full := true
	for i := range l.slots {
		p := l.slots[i].Load()
		if p == nil {
			full = false
			break
		}
		if floor < 0 || int64(p.Total) < floor {
			floor = int64(p.Total)
		}
		if pat := p.At.UnixNano(); oldest == 0 || pat < oldest {
			oldest = pat
		}
	}
	if !full {
		floor = -1
	}
	l.floor.Store(floor)
	l.oldest.Store(oldest)
}

// Snapshot returns the retained traces sorted slowest-first. It is
// lock-free: slots are read through their atomic pointers and every trace
// is immutable after publication.
func (l *SlowLog) Snapshot() []SlowTrace {
	out := make([]SlowTrace, 0, len(l.slots))
	for i := range l.slots {
		if p := l.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// Len returns the number of retained traces.
func (l *SlowLog) Len() int {
	n := 0
	for i := range l.slots {
		if l.slots[i].Load() != nil {
			n++
		}
	}
	return n
}
