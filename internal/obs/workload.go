package obs

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/approx"
	"repro/internal/model"
	"repro/internal/sketch"
	"repro/internal/workload"
)

// Workload fingerprinting. A WorkloadRecorder taps one shard's op stream —
// the same single-owner hook path as the PhaseRecorder: only the shard
// goroutine records, and everything crosses goroutines as immutable
// Snapshot clones over mailbox happens-before edges. Where the phase plane
// answers "how long did operations take", the workload plane answers "what
// is the traffic *shaped* like": read/write/scan/delete mix, key skew
// (count-min + heavy-hitter top-k), working-set cardinality (HyperLogLog
// distinct estimator), and the scan-length distribution.
//
// The recorder is windowed by operation count, not wall time: every
// WindowOps operations it freezes the accumulating state into a Fingerprint,
// scores the drift distance against the previous window, latches a
// DriftEvent when the distance crosses the threshold, and starts the next
// window. Op-count windows are what make the drift experiment
// byte-deterministic — the same stream always rotates at the same points —
// and they are the natural denominator for mix fractions anyway.

// Fingerprint is one completed window's workload shape, built from mergeable
// raw material: per-kind op counts, the window's heavy hitters with
// count-min-estimated frequencies, the distinct-key estimator's registers,
// and the scan-length histogram. Shard fingerprints merge exactly on the
// mix/scan side and by union on the probabilistic side; hot-key sets from
// different shards are disjoint by construction (a key routes to one shard),
// so concatenation is a true merge there too.
type Fingerprint struct {
	// Window is the 1-based window sequence number on the owning shard
	// (after a merge: the largest input window number).
	Window uint64 `json:"window"`
	// Ops counts the window's operations by kind, workload.OpKind order.
	Ops [workload.NumOps]uint64 `json:"ops"`
	// Hot is the window's heavy hitters, heaviest first, counts estimated by
	// the window's count-min sketch (tight for heavy keys).
	Hot []sketch.KeyCount `json:"hot,omitempty"`
	// ScanRows is the window's scan-length distribution (rows per scan).
	ScanRows *Histogram `json:"-"`

	distinct *approx.Distinct
}

// Total returns the window's total op count.
func (f *Fingerprint) Total() uint64 {
	var t uint64
	for _, c := range f.Ops {
		t += c
	}
	return t
}

// KeyedOps returns the point ops (everything but scans) — the denominator
// for key-skew fractions.
func (f *Fingerprint) KeyedOps() uint64 { return f.Total() - f.Ops[workload.OpScan] }

// MixFrac returns kind's fraction of the window's ops (0 for an empty
// window).
func (f *Fingerprint) MixFrac(op workload.OpKind) float64 {
	t := f.Total()
	if t == 0 {
		return 0
	}
	return float64(f.Ops[op]) / float64(t)
}

// HotShare returns the fraction of keyed ops that targeted the window's
// heavy hitters — the cache-friendliness signal. Count-min overestimates,
// so the share is clamped to 1.
func (f *Fingerprint) HotShare() float64 {
	keyed := f.KeyedOps()
	if keyed == 0 {
		return 0
	}
	var hot uint64
	for _, h := range f.Hot {
		hot += h.Count
	}
	s := float64(hot) / float64(keyed)
	if s > 1 {
		s = 1
	}
	return s
}

// ZipfSlope estimates the key-skew exponent: the least-squares slope of
// ln(count) against ln(rank) over the heavy hitters, negated so a uniform
// window reports ~0 and a zipf(θ) window reports ~θ. Fewer than two hot
// keys report 0.
func (f *Fingerprint) ZipfSlope() float64 {
	var n, sx, sy, sxx, sxy float64
	for i, h := range f.Hot {
		if h.Count == 0 {
			break
		}
		x, y := math.Log(float64(i+1)), math.Log(float64(h.Count))
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n < 2 {
		return 0
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return -(n*sxy - sx*sy) / den
}

// DistinctKeys returns the window's estimated working-set cardinality.
func (f *Fingerprint) DistinctKeys() float64 {
	if f.distinct == nil {
		return 0
	}
	return f.distinct.Estimate()
}

// Clone returns an independent deep copy.
func (f *Fingerprint) Clone() *Fingerprint {
	if f == nil {
		return nil
	}
	c := *f
	c.Hot = append([]sketch.KeyCount(nil), f.Hot...)
	if f.ScanRows != nil {
		c.ScanRows = f.ScanRows.Clone()
	}
	c.distinct = f.distinct.Clone()
	return &c
}

// Merge folds o into f: counts sum, hot sets concatenate (disjoint across
// shards) and re-rank, distinct registers union, scan histograms merge, and
// the window number takes the max. kept bounds the merged hot list; pass
// len(f.Hot)+len(o.Hot) to keep everything.
func (f *Fingerprint) Merge(o *Fingerprint, kept int) {
	if o == nil {
		return
	}
	if o.Window > f.Window {
		f.Window = o.Window
	}
	for i := range f.Ops {
		f.Ops[i] += o.Ops[i]
	}
	f.Hot = mergeHot(f.Hot, o.Hot, kept)
	if f.ScanRows != nil && o.ScanRows != nil {
		f.ScanRows.Merge(o.ScanRows)
	} else if f.ScanRows == nil && o.ScanRows != nil {
		f.ScanRows = o.ScanRows.Clone()
	}
	if f.distinct == nil {
		f.distinct = o.distinct.Clone()
	} else {
		f.distinct.Merge(o.distinct)
	}
}

// mergeHot concatenates two ranked hot lists, sums duplicate keys (a key
// appears twice only when merging overlapping streams, never across
// shards), re-ranks by (count desc, key asc), and keeps the top kept.
func mergeHot(a, b []sketch.KeyCount, kept int) []sketch.KeyCount {
	t := sketch.NewTopK(kept)
	for _, h := range a {
		t.Add(h.Key, h.Count)
	}
	for _, h := range b {
		t.Add(h.Key, h.Count)
	}
	return t.Items()
}

// FingerprintStats is the compact derived summary of a fingerprint — what
// drift events record for their before/after sides and what the JSON
// endpoint publishes.
type FingerprintStats struct {
	Window    uint64  `json:"window"`
	Ops       uint64  `json:"ops"`
	Get       float64 `json:"get"`
	Insert    float64 `json:"insert"`
	Update    float64 `json:"update"`
	Delete    float64 `json:"delete"`
	Scan      float64 `json:"scan"`
	HotShare  float64 `json:"hot_share"`
	ZipfSlope float64 `json:"zipf_slope"`
	Distinct  float64 `json:"distinct_keys"`
	ScanP50   float64 `json:"scan_rows_p50"`
}

// Stats derives the compact summary.
func (f *Fingerprint) Stats() FingerprintStats {
	s := FingerprintStats{
		Window:    f.Window,
		Ops:       f.Total(),
		Get:       f.MixFrac(workload.OpGet),
		Insert:    f.MixFrac(workload.OpInsert),
		Update:    f.MixFrac(workload.OpUpdate),
		Delete:    f.MixFrac(workload.OpDelete),
		Scan:      f.MixFrac(workload.OpScan),
		HotShare:  f.HotShare(),
		ZipfSlope: f.ZipfSlope(),
		Distinct:  f.DistinctKeys(),
	}
	if f.ScanRows != nil && f.ScanRows.Count() > 0 {
		s.ScanP50 = f.ScanRows.Quantile(0.50)
	}
	return s
}

// Priced reads the summary as the analytic model's inputs, and is the one such
// reading: the advisor and the morphing engine (methods.Morphing) both price
// through it. The traffic is the window's mix, its median scan length and its
// hot share; the substrate is on, holding no fewer records than the window's
// working set — a structure is never taken to be smaller than the traffic it
// serves.
func (s FingerprintStats) Priced(on model.Params) (model.Traffic, model.Params) {
	on.N = math.Max(on.N, s.Distinct)
	return model.Traffic{
		Mix:      workload.Mix{Get: s.Get, Insert: s.Insert, Update: s.Update, Delete: s.Delete, Scan: s.Scan},
		ScanRows: s.ScanP50, HotShare: s.HotShare,
	}, on
}

// DriftScore is the distance between two window fingerprints:
//
//	½·L1(mix fractions)            ∈ [0,1]  what the traffic does
//	+ |Δ hot share|                ∈ [0,1]  where it concentrates
//	+ ½·min(2, |log2 ratio of working sets|)  ∈ [0,1]  how wide it ranges
//	+ ⅛·min(2, |log2 ratio of scan p50s|)     ∈ [0,.25] how far scans reach
//
// Identical windows score 0; a full phase change (read-heavy uniform →
// write-heavy zipf) lands well above 1. The default latch threshold is
// DefaultDriftThreshold. The scan term is weighted so a p50 hopping one
// power-of-2 histogram bucket (a quantization flap, not a workload shift)
// cannot cross the threshold on its own.
func DriftScore(a, b FingerprintStats) float64 {
	l1 := math.Abs(a.Get-b.Get) + math.Abs(a.Insert-b.Insert) +
		math.Abs(a.Update-b.Update) + math.Abs(a.Delete-b.Delete) +
		math.Abs(a.Scan-b.Scan)
	score := l1/2 + math.Abs(a.HotShare-b.HotShare)
	score += 0.5 * logRatio(a.Distinct, b.Distinct, 2)
	score += 0.125 * logRatio(a.ScanP50, b.ScanP50, 2)
	return score
}

// logRatio returns |log2((x+1)/(y+1))| capped at lim — a symmetric,
// zero-safe magnitude-shift measure.
func logRatio(x, y, lim float64) float64 {
	r := math.Abs(math.Log2((x + 1) / (y + 1)))
	if r > lim {
		r = lim
	}
	return r
}

// DefaultDriftThreshold is the drift score at which a DriftEvent latches.
const DefaultDriftThreshold = 0.25

// DriftEvent is one latched workload shift: the window at which it was
// detected, the score, and the before/after summaries — the flight-recorder
// entry the advisor (and a future controller) reads.
type DriftEvent struct {
	Window uint64           `json:"window"`
	Score  float64          `json:"score"`
	From   FingerprintStats `json:"from"`
	To     FingerprintStats `json:"to"`
}

// Workload-recorder sizing: the heavy-hitter rank depth, the count-min
// shape (ε=1/256 of the window, δ≈e⁻³), and the scan-length histogram
// buckets (1 .. 2^19 rows).
const (
	workloadTopK      = 8
	workloadEpsilon   = 1.0 / 256
	workloadDelta     = 0.05
	scanRowsBuckets   = 20
	defaultWindowOps  = 4096
	defaultKeepRecent = 16
)

// WorkloadRecorder accumulates one shard's workload fingerprint state.
// Single-owner: only the shard goroutine calls RecordOp/RecordScan/Snapshot.
// The quiet path (no recorder) costs the serving layer one nil check per
// message, allocation-identical to a build without fingerprinting.
type WorkloadRecorder struct {
	windowOps uint64
	keep      int
	threshold float64

	// Cumulative plane (diffable across snapshots).
	cum      [workload.NumOps]uint64
	cumScans *Histogram

	// Current window; curTotal is the running sum of curOps, so the rotation
	// check is one comparison per operation.
	curOps   [workload.NumOps]uint64
	curTotal uint64
	curScans *Histogram
	cm       *sketch.CountMin
	topk     *sketch.TopK
	distinct *approx.Distinct

	windows    uint64
	recent     []Fingerprint    // completed windows, oldest first, ≤ keep (its capacity)
	last       FingerprintStats // Window 0 until the first rotation
	drift      float64
	driftCount uint64
	events     []DriftEvent // latched drifts, oldest first, ≤ keep (its capacity)
}

// NewWorkloadRecorder returns a recorder rotating every windowOps operations
// (≤0 selects 4096) and retaining the last keep window fingerprints and
// drift events (≤0 selects 16).
func NewWorkloadRecorder(windowOps, keep int) *WorkloadRecorder {
	if windowOps <= 0 {
		windowOps = defaultWindowOps
	}
	if keep <= 0 {
		keep = defaultKeepRecent
	}
	return &WorkloadRecorder{
		windowOps: uint64(windowOps),
		keep:      keep,
		threshold: DefaultDriftThreshold,
		cumScans:  NewHistogram(PowerOfTwoBounds(scanRowsBuckets)),
		curScans:  NewHistogram(PowerOfTwoBounds(scanRowsBuckets)),
		cm:        sketch.New(workloadEpsilon, workloadDelta, nil),
		topk:      sketch.NewTopK(workloadTopK),
		distinct:  approx.NewDefaultDistinct(),
		recent:    make([]Fingerprint, 0, keep),
		events:    make([]DriftEvent, 0, keep),
	}
}

// Last returns the newest completed window's summary; its Window is 0 before
// the first rotation. Unlike Snapshot it copies no sketch, so an owner that
// acts on rotations can poll it after every operation.
func (r *WorkloadRecorder) Last() FingerprintStats { return r.last }

// RecordOp observes one keyed operation.
func (r *WorkloadRecorder) RecordOp(op workload.OpKind, key uint64) {
	r.cum[op]++
	r.curOps[op]++
	r.cm.Add(key, 1)
	r.topk.Add(key, 1)
	r.distinct.Add(key)
	r.counted()
}

// RecordScan observes one range scan that returned rows records on this
// shard.
func (r *WorkloadRecorder) RecordScan(rows int) {
	r.cum[workload.OpScan]++
	r.curOps[workload.OpScan]++
	r.cumScans.Record(float64(rows))
	r.curScans.Record(float64(rows))
	r.counted()
}

// counted closes the recording of one operation: it joins the window, which
// completes once it has WindowOps of them.
func (r *WorkloadRecorder) counted() {
	r.curTotal++
	if r.curTotal >= r.windowOps {
		r.Rotate()
	}
}

// pushBounded appends v to ring, a slice of at most cap(ring) elements kept
// oldest first: at capacity the oldest is dropped by copying the rest down,
// so the backing array is the one the recorder was built with, for good.
func pushBounded[T any](ring []T, v T) []T {
	if len(ring) < cap(ring) {
		return append(ring, v)
	}
	copy(ring, ring[1:])
	ring[len(ring)-1] = v
	return ring
}

// Rotate freezes the in-progress window into a Fingerprint, scores drift
// against the previous window, latches an event past the threshold, and
// clears the window state. Callers normally never need it — RecordOp
// rotates automatically — but an experiment draining a stream shorter than
// a full window can force the final partial window out. Rotating an empty
// window is a no-op.
func (r *WorkloadRecorder) Rotate() {
	if r.curTotal == 0 {
		return
	}
	r.windows++
	fp := Fingerprint{
		Window:   r.windows,
		Ops:      r.curOps,
		ScanRows: r.curScans.Clone(),
		distinct: r.distinct.Clone(),
	}
	// Heavy-hitter identities from the top-k table, frequencies from the
	// count-min sketch: the sketch never underestimates and is tight for
	// heavy keys, so the skew numbers survive top-k compaction churn.
	if top := r.topk.ItemsInto(nil); len(top) > 0 {
		fp.Hot = make([]sketch.KeyCount, len(top))
		for i, h := range top {
			fp.Hot[i] = sketch.KeyCount{Key: h.Key, Count: r.cm.Estimate(h.Key)}
		}
	}
	st := fp.Stats()
	if r.last.Window != 0 {
		r.drift = DriftScore(r.last, st)
		if r.drift >= r.threshold {
			r.driftCount++
			r.events = pushBounded(r.events, DriftEvent{
				Window: fp.Window, Score: r.drift, From: r.last, To: st,
			})
		}
	}
	r.last = st
	r.recent = pushBounded(r.recent, fp)
	r.curOps, r.curTotal = [workload.NumOps]uint64{}, 0
	r.curScans.reset()
	r.cm.Clear()
	r.topk.Clear()
	r.distinct.Clear()
}

// WorkloadSnapshot is an immutable copy of a recorder's state, published
// over the same happens-before edges as every other shard ledger and
// mergeable across shards.
type WorkloadSnapshot struct {
	// WindowOps is the rotation cadence; Windows counts completed windows.
	WindowOps uint64 `json:"window_ops"`
	Windows   uint64 `json:"windows"`
	// Cum is the cumulative per-kind op ledger (diffable across snapshots);
	// CumScanRows the cumulative scan-length histogram.
	Cum         [workload.NumOps]uint64 `json:"cum"`
	CumScanRows *Histogram              `json:"-"`
	// Last is the newest completed window's fingerprint (nil before the
	// first rotation); Recent the retained history, oldest first.
	Last   *Fingerprint  `json:"last,omitempty"`
	Recent []Fingerprint `json:"recent,omitempty"`
	// Drift is the newest window-to-window drift score; DriftCount the
	// events latched so far; Events the retained ring, oldest first.
	Drift      float64      `json:"drift"`
	DriftCount uint64       `json:"drift_count"`
	Events     []DriftEvent `json:"events,omitempty"`
}

// Snapshot clones the recorder's state. Called by the owning shard
// goroutine only; the clone is immutable afterwards.
func (r *WorkloadRecorder) Snapshot() *WorkloadSnapshot {
	s := &WorkloadSnapshot{
		WindowOps:   r.windowOps,
		Windows:     r.windows,
		Cum:         r.cum,
		CumScanRows: r.cumScans.Clone(),
		Drift:       r.drift,
		DriftCount:  r.driftCount,
		Events:      append([]DriftEvent(nil), r.events...),
	}
	for i := range r.recent {
		s.Recent = append(s.Recent, *r.recent[i].Clone())
	}
	if n := len(s.Recent); n > 0 {
		s.Last = &s.Recent[n-1]
	}
	return s
}

// Clone returns an independent deep copy.
func (s *WorkloadSnapshot) Clone() *WorkloadSnapshot {
	if s == nil {
		return nil
	}
	c := &WorkloadSnapshot{
		WindowOps:  s.WindowOps,
		Windows:    s.Windows,
		Cum:        s.Cum,
		Drift:      s.Drift,
		DriftCount: s.DriftCount,
		Events:     append([]DriftEvent(nil), s.Events...),
	}
	if s.CumScanRows != nil {
		c.CumScanRows = s.CumScanRows.Clone()
	}
	for i := range s.Recent {
		c.Recent = append(c.Recent, *s.Recent[i].Clone())
	}
	if n := len(c.Recent); n > 0 {
		c.Last = &c.Recent[n-1]
	}
	return c
}

// Merge folds o into s: cumulative ledgers sum, the newest fingerprints
// merge (shards rotate on their own op counts, so "last windows" align in
// size, not wall time — the merged view is per-shard-latest), drift takes
// the worst shard, and event rings concatenate in window order. Recent
// histories are not merged pairwise — after a merge, Recent holds only the
// merged Last (per-window history is a per-shard notion).
func (s *WorkloadSnapshot) Merge(o *WorkloadSnapshot) {
	if o == nil {
		return
	}
	if o.Windows > s.Windows {
		s.Windows = o.Windows
	}
	for i := range s.Cum {
		s.Cum[i] += o.Cum[i]
	}
	if s.CumScanRows != nil && o.CumScanRows != nil {
		s.CumScanRows.Merge(o.CumScanRows)
	} else if s.CumScanRows == nil && o.CumScanRows != nil {
		s.CumScanRows = o.CumScanRows.Clone()
	}
	var last *Fingerprint
	if s.Last != nil {
		last = s.Last.Clone()
		last.Merge(o.Last, workloadTopK)
	} else if o.Last != nil {
		last = o.Last.Clone()
	}
	s.Recent = nil
	s.Last = nil
	if last != nil {
		s.Recent = []Fingerprint{*last}
		s.Last = &s.Recent[0]
	}
	if o.Drift > s.Drift {
		s.Drift = o.Drift
	}
	s.DriftCount += o.DriftCount
	s.Events = mergeEvents(s.Events, o.Events)
}

// mergeEvents concatenates two event rings in (window, score desc) order.
func mergeEvents(a, b []DriftEvent) []DriftEvent {
	out := append(append([]DriftEvent(nil), a...), b...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Window < out[j-1].Window ||
				(out[j].Window == out[j-1].Window && out[j].Score > out[j-1].Score) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// WorkloadReport renders the point's fingerprint and advisor lines of a
// final report — what the traffic looked like and where the paper's cost
// model says it would be cheaper — or "" with fingerprinting off.
func (p *WindowPoint) WorkloadReport(current string, on model.Params) string {
	w := p.Workload
	if w == nil {
		return ""
	}
	s := fmt.Sprintf("workload: %d window(s) of %d ops, %d drift event(s) latched\n",
		w.Windows, w.WindowOps, w.DriftCount)
	if adv, ok := p.Advise(current, on); ok {
		st := w.Last.Stats()
		s += fmt.Sprintf("workload: last window mix g/i/u/d/s %.2f/%.2f/%.2f/%.2f/%.2f, hot share %.2f, zipf %.2f, ~%.0f distinct keys\n%s\n",
			st.Get, st.Insert, st.Update, st.Delete, st.Scan, st.HotShare, st.ZipfSlope, st.Distinct, adv)
	}
	return s
}

// WorkloadSource is the workload plane over the newest sample's merged
// snapshot: cumulative op and drift-event counters, the last completed
// window's mix, skew, and working-set gauges (from the first rotation), and
// the advisor's verdict for it with method, built on substrate on, as the
// running configuration.
func (r *Rolling) WorkloadSource(method string, on model.Params) Source {
	return SourceFunc(func(e *Encoder) {
		p := r.newest()
		w := p.Workload
		if w == nil {
			w = &WorkloadSnapshot{}
		}
		e.Counter("rum_workload_windows_total", "Completed fingerprint windows across all shards.", w.Windows)
		e.GaugeUint("rum_workload_window_ops", "Configured ops per fingerprint window (per shard).", w.WindowOps)
		e.Family("rum_workload_ops_total", "counter", "Fingerprinted operations by kind, cumulative.")
		for op := workload.OpKind(0); op < workload.NumOps; op++ {
			e.Uint("rum_workload_ops_total", L("op", op.String()), w.Cum[op])
		}
		if last := w.Last; last != nil {
			st := last.Stats()
			e.Family("rum_workload_mix", "gauge", "Operation-mix fraction of the last completed fingerprint window.")
			for op := workload.OpKind(0); op < workload.NumOps; op++ {
				e.Float("rum_workload_mix", L("op", op.String()), last.MixFrac(op))
			}
			e.Gauge("rum_workload_hot_share", "Fraction of last-window keyed ops on the heavy-hitter set.", st.HotShare)
			e.Gauge("rum_workload_zipf_slope", "Estimated key-skew exponent of the last window's heavy hitters.", st.ZipfSlope)
			e.Gauge("rum_workload_distinct_keys", "Estimated working-set cardinality of the last window.", st.Distinct)
			e.Family("rum_workload_hot_key_ops", "gauge", "Estimated op count of the last window's heavy hitters (exemplar keys).")
			for rank, h := range last.Hot {
				e.Uint("rum_workload_hot_key_ops",
					L("rank", strconv.Itoa(rank), "key", strconv.FormatUint(h.Key, 10)), h.Count)
			}
		}
		if w.CumScanRows != nil {
			e.Family("rum_workload_scan_rows", "histogram", "Rows returned per range scan, cumulative.")
			e.Histo("rum_workload_scan_rows", nil, w.CumScanRows)
		}
		e.Gauge("rum_workload_drift_score", "Distance between the two newest fingerprint windows (max across shards).", w.Drift)
		e.Counter("rum_workload_drift_events_total", "Workload drift events latched across all shards.", w.DriftCount)
		if adv, ok := p.Advise(method, on); ok {
			e.Gauge("rum_workload_advice_delta", "Predicted per-op page-access saving of moving to the advisor's pick (0 = best placed).", adv.Delta)
			e.Family("rum_workload_advice", "gauge", "Advisor verdict for the last window: current and advised configuration as labels.")
			e.Uint("rum_workload_advice", L("current", adv.Current.Config, "advised", adv.Best.Config), 1)
		}
	})
}
