package obs

import (
	"math"
	"sort"
	"time"
)

// Test-only references for the observation taps' hot paths: the code the
// O(1) kernels and the admit-then-assemble trace path replaced, kept so
// differential tests can hold the replacements to it.

// bisectBucket is the bucket search every Histogram ran before the
// power-of-two layout got its bit-length path: the first bound >= v.
func bisectBucket(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bisectHistogram records like a Histogram whose only kernel is bisectBucket.
type bisectHistogram struct{ h *Histogram }

func newBisectHistogram(bounds []float64) bisectHistogram {
	return bisectHistogram{&Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1), pow2: isPowerOfTwoLayout(bounds)}}
}

func (b bisectHistogram) record(v float64) {
	if math.IsNaN(v) {
		return
	}
	h := b.h
	h.n++
	if !math.IsInf(v, 1) {
		h.sum += v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bisectBucket(h.bounds, v)]++
}

func (b bisectHistogram) recordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.record(float64(d.Nanoseconds()))
}

// eagerPhases is the phase recorder's old observation path: handed a fully
// assembled trace for every operation, it bisects three times and decides the
// exemplar with time.Time arithmetic.
type eagerPhases struct {
	queue, service bisectHistogram
	ex             []Exemplar
}

func newEagerPhases() *eagerPhases {
	return &eagerPhases{
		queue:   newBisectHistogram(PowerOfTwoBounds(latencyBuckets)),
		service: newBisectHistogram(PowerOfTwoBounds(latencyBuckets)),
		ex:      make([]Exemplar, latencyBuckets+1),
	}
}

func (r *eagerPhases) observe(t SlowTrace) {
	r.queue.recordDuration(t.Queue)
	r.service.recordDuration(t.Service)
	b := bisectBucket(r.service.h.bounds, float64(t.Service.Nanoseconds()))
	cur := &r.ex[b]
	if cur.Total == 0 || t.Total >= cur.Total || t.At.Sub(cur.At) > exemplarTTL {
		*cur = Exemplar{
			Bucket: b, Op: t.Op, Key: t.Key, Shard: t.Shard,
			Queue: t.Queue, Service: t.Service, Total: t.Total,
			Pages: t.Pages, Run: t.Run, At: t.At,
		}
	}
}

// snapshot renders the reference state in PhaseSnapshot form (no batches, no
// storage ledger: the differential tests feed neither).
func (r *eagerPhases) snapshot() *PhaseSnapshot {
	s := &PhaseSnapshot{
		Queue:   r.queue.h.Clone(),
		Service: r.service.h.Clone(),
		Batch:   NewHistogram(PowerOfTwoBounds(batchBuckets)),
	}
	for _, e := range r.ex {
		if e.Total != 0 {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
	return s
}

// eagerSlowLog is the flight recorder's admission rule stated sequentially,
// with time.Time arithmetic and no gate: an empty slot beats an expired trace
// beats the minimum-Total trace, and an unexpired minimum loses only to a
// strictly slower trace.
type eagerSlowLog struct {
	slots []*SlowTrace
	ttl   time.Duration
}

func (l *eagerSlowLog) offer(t SlowTrace) {
	victim, expired := -1, -1
	for i, p := range l.slots {
		if p == nil {
			l.slots[i] = &t
			return
		}
		if l.ttl > 0 && t.At.Sub(p.At) > l.ttl && expired < 0 {
			expired = i
		}
		if victim < 0 || p.Total < l.slots[victim].Total {
			victim = i
		}
	}
	switch {
	case expired >= 0:
		l.slots[expired] = &t
	case t.Total > l.slots[victim].Total:
		l.slots[victim] = &t
	}
}

func (l *eagerSlowLog) snapshot() []SlowTrace {
	out := make([]SlowTrace, 0, len(l.slots))
	for _, p := range l.slots {
		if p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
