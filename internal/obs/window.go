package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/rum"
)

// This file is the rolling half of the live telemetry plane. The serving
// layer (internal/serve) can be snapshotted without stopping; a Rolling
// ring retains the recent snapshots and derives what cumulative counters
// hide: rolling-window RUM rates (bytes read/written per operation over the
// last W seconds rather than since boot), latency quantile deltas between
// snapshots, and per-shard balance. The cumulative trajectory says where a
// structure has been; the window says what it is doing right now — a
// compaction wave shows up as a UO spike in the window long before it moves
// the cumulative ratio.

// ShardPoint is one shard's ledger at a sampling instant. It is the numeric
// core of a serve.ShardReport, which embeds it — defined here so obs does not
// import the serving layer, and so a sampler appends the report's ShardPoint
// to a WindowPoint without copying a field.
type ShardPoint struct {
	Shard int          `json:"shard"`
	Ops   uint64       `json:"ops"`
	Meter rum.Meter    `json:"meter"`
	Size  rum.SizeInfo `json:"size"`
	Len   int          `json:"len"`
	// SnapVersions is the shard's retained MVCC snapshot count at this
	// instant (0 when snapshot serving is off).
	SnapVersions int `json:"snap_versions,omitempty"`
	// WAL is the shard's write-ahead-log ledger at this instant; nil when
	// the shard's structure is not logged.
	WAL *WALPoint `json:"wal,omitempty"`
	// Mailbox is what the shard's mailbox wait strategy has done and cost.
	Mailbox MailboxPoint `json:"mailbox"`
}

// MailboxPoint counts a shard's idle periods — the times it found its
// mailbox empty — and how each ended. A shard polls an empty mailbox for a
// short window before it parks (see serve's shard.next), and this is that
// mechanism's own overhead report.
type MailboxPoint struct {
	// IdlePeriods = Polled + Parked, plus one if Stop closed the mailbox
	// while the shard was polling it.
	IdlePeriods uint64 `json:"idle_periods"`
	// Polled counts idle periods ended by a message found while polling: a
	// park/unpark round trip saved.
	Polled uint64 `json:"polled"`
	// Parked counts idle periods that ended in the blocking receive.
	Parked uint64 `json:"parked"`
	// Backoffs counts yields that outlasted the poll window — the processors
	// were oversubscribed — each of which suspends polling for as many idle
	// periods as windows it took.
	Backoffs uint64 `json:"backoffs"`
	// PollNanos is the wall time spent between finding the mailbox empty and
	// either a polled message or the decision to park.
	PollNanos uint64 `json:"poll_nanos"`
}

// Add folds o into m, counter by counter.
func (m *MailboxPoint) Add(o MailboxPoint) {
	m.IdlePeriods += o.IdlePeriods
	m.Polled += o.Polled
	m.Parked += o.Parked
	m.Backoffs += o.Backoffs
	m.PollNanos += o.PollNanos
}

// MailboxReport is the shutdown report's line on the mailbox wait strategy,
// summed over the point's shards.
func (p *WindowPoint) MailboxReport() string {
	var m MailboxPoint
	for _, s := range p.Shards {
		m.Add(s.Mailbox)
	}
	return fmt.Sprintf("mailbox: %d idle periods, %d ended by a polled message and %d by a park; %d slow-yield back-offs; %.3fs spent polling\n",
		m.IdlePeriods, m.Polled, m.Parked, m.Backoffs, float64(m.PollNanos)/1e9)
}

// WALPoint is a write-ahead-logged shard's durability counters (wal.Stats
// plus the committed watermark), kept structure-agnostic so obs does not
// import the log.
type WALPoint struct {
	// Committed is the records durably group-committed so far — the
	// watermark the DurableToCommit contract promises back after a crash.
	Committed uint64 `json:"committed"`
	// Commits and Syncs count group commits and simulated syncs (one per
	// commit, one per checkpoint record); their ratio to Committed is the
	// group-commit amortization.
	Commits uint64 `json:"commits"`
	Syncs   uint64 `json:"syncs"`
	// Checkpoints counts completed checkpoints (overlay absorbed, inner
	// barrier durable, old log segments recycled).
	Checkpoints uint64 `json:"checkpoints"`
	// LogPagesWritten / LogBytesWritten / PagesRecycled count cumulative
	// appended log traffic and the pages returned after checkpoints.
	LogPagesWritten uint64 `json:"log_pages_written"`
	LogBytesWritten uint64 `json:"log_bytes_written"`
	PagesRecycled   uint64 `json:"pages_recycled"`
	// CheckpointRecords / CheckpointNanos are the overlay entries checkpoints
	// handed to the structure and the wall-clock time they took: the write
	// stall, since a shard serves nothing while it checkpoints.
	CheckpointRecords uint64 `json:"checkpoint_records"`
	CheckpointNanos   uint64 `json:"checkpoint_nanos"`
	// LiveLogPages and OverlayRecords are the current footprint: log pages
	// not yet recycled and overlay entries not yet absorbed.
	LiveLogPages   int `json:"live_log_pages"`
	OverlayRecords int `json:"overlay_records"`
}

// Add folds o into w, counter by counter: shards' logs are disjoint, so the
// sum is the server-wide durability ledger.
func (w *WALPoint) Add(o WALPoint) {
	w.Committed += o.Committed
	w.Commits += o.Commits
	w.Syncs += o.Syncs
	w.Checkpoints += o.Checkpoints
	w.LogPagesWritten += o.LogPagesWritten
	w.LogBytesWritten += o.LogBytesWritten
	w.PagesRecycled += o.PagesRecycled
	w.CheckpointRecords += o.CheckpointRecords
	w.CheckpointNanos += o.CheckpointNanos
	w.LiveLogPages += o.LiveLogPages
	w.OverlayRecords += o.OverlayRecords
}

// WindowPoint is one instant of a live system: a timestamp, every shard's
// cumulative ledger, and (optionally) the cumulative latency histogram at
// that instant. Points are immutable once published to a Rolling ring —
// that immutability is what makes the ring's reads lock-free.
type WindowPoint struct {
	At      time.Time
	Shards  []ShardPoint
	Latency *Histogram // cumulative; nil when latency is not tracked
	// Phases is the merged per-shard lifecycle decomposition at this
	// instant (cumulative queue/service/batch histograms and exemplars);
	// nil when request tracing is disabled.
	Phases *PhaseSnapshot
	// Workload is the merged per-shard workload fingerprint at this instant
	// (mix/skew/working-set/drift); nil when fingerprinting is disabled.
	Workload *WorkloadSnapshot
	// Readers is the number of MVCC bypass readers executing on client
	// goroutines at this instant, SnapReads the requests served off
	// snapshots so far; both zero when snapshot serving is off.
	Readers   int
	SnapReads uint64
	// MailboxDepth is each shard's mailbox occupancy in messages at this
	// instant, in shard order.
	MailboxDepth []int
}

// Totals aggregates the point's shards: summed meter, summed size, total
// operations executed, and total records live.
func (p *WindowPoint) Totals() (m rum.Meter, sz rum.SizeInfo, ops uint64, n int) {
	for _, s := range p.Shards {
		m.Add(s.Meter)
		sz = sz.Add(s.Size)
		ops += s.Ops
		n += s.Len
	}
	return m, sz, ops, n
}

// Rolling is a fixed-capacity ring of recent WindowPoints with lock-free
// reads: one writer (the sampling loop) publishes immutable points; any
// number of readers (HTTP scrape handlers) traverse without blocking the
// writer or each other. Writes are bracketed by a seqlock version counter
// (odd while a store is in flight); readers snapshot the version before
// traversing and retry if it moved, so a traversal can never interleave
// with a slot overwrite. Re-checking head alone is not enough: a push
// stores into the slot the oldest retained point occupies *before* bumping
// head, so a reader racing that store could see the newest point in the
// oldest position and still pass a head re-check.
type Rolling struct {
	slots []atomic.Pointer[WindowPoint]
	head  atomic.Uint64 // number of points ever pushed
	ver   atomic.Uint64 // seqlock: odd while Push is storing
}

// NewRolling returns a ring retaining the last capacity points (minimum 2 —
// a window needs two ends).
func NewRolling(capacity int) *Rolling {
	if capacity < 2 {
		capacity = 2
	}
	return &Rolling{slots: make([]atomic.Pointer[WindowPoint], capacity)}
}

// Push publishes p as the newest point. Push is single-writer: only the
// sampling loop may call it.
func (r *Rolling) Push(p *WindowPoint) {
	r.ver.Add(1) // odd: store in progress
	h := r.head.Load()
	r.slots[h%uint64(len(r.slots))].Store(p)
	r.head.Store(h + 1)
	r.ver.Add(1) // even: store visible
}

// Len returns the number of points currently retained.
func (r *Rolling) Len() int {
	h := r.head.Load()
	if h > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(h)
}

// Last returns the newest point, or nil when nothing has been pushed.
func (r *Rolling) Last() *WindowPoint {
	h := r.head.Load()
	if h == 0 {
		return nil
	}
	return r.slots[(h-1)%uint64(len(r.slots))].Load()
}

// Points returns the retained points, oldest first. If a push lands
// mid-read the traversal restarts, so the returned slice is always a
// consistent, time-ordered suffix of the push history.
func (r *Rolling) Points() []*WindowPoint {
	n := uint64(len(r.slots))
	for {
		v := r.ver.Load()
		if v&1 == 1 {
			continue // a store is mid-flight; wait it out
		}
		h := r.head.Load()
		start := uint64(0)
		if h > n {
			start = h - n
		}
		out := make([]*WindowPoint, 0, h-start)
		for i := start; i < h; i++ {
			if p := r.slots[i%n].Load(); p != nil {
				out = append(out, p)
			}
		}
		if r.ver.Load() == v {
			return out
		}
	}
}

// WindowStats is what a Rolling ring derives from the two ends of a time
// window: rates and amplifications of the traffic inside the window, the
// latency distribution of requests completed inside it, and how evenly the
// shards shared the work.
type WindowStats struct {
	Span time.Duration `json:"span_ns"` // actual distance between the two points
	Ops  uint64        `json:"ops"`     // operations completed in the window

	OpsPerSec float64 `json:"ops_per_sec"`
	// Physical bytes moved per operation inside the window — the live
	// "pages touched per op" signal (the serving meters count bytes; divide
	// by the page size for pages).
	ReadBytesPerOp  float64 `json:"read_bytes_per_op"`
	WriteBytesPerOp float64 `json:"write_bytes_per_op"`

	// Windowed RUM point: amplifications of the window's traffic alone, and
	// the space amplification at the window's newest instant.
	RO float64 `json:"ro"`
	UO float64 `json:"uo"`
	MO float64 `json:"mo"`

	// Latency quantiles of requests completed inside the window (zero when
	// latency is not tracked).
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`

	// Lifecycle decomposition of the operations executed inside the window
	// (zero when request tracing is disabled): how long operations waited
	// in mailboxes versus how long they executed. A p99 spike with a flat
	// ServiceP99 is queueing; the converse is the structure itself.
	QueueP50   time.Duration `json:"queue_p50_ns"`
	QueueP99   time.Duration `json:"queue_p99_ns"`
	ServiceP50 time.Duration `json:"service_p50_ns"`
	ServiceP99 time.Duration `json:"service_p99_ns"`

	// Balance is min/max over the per-shard operation counts of the window:
	// 1 means perfectly even, 0 means at least one shard sat idle. A single
	// shard reports 1.
	Balance float64 `json:"balance"`

	// Meter is the raw aggregate delta the rates above are derived from.
	Meter rum.Meter `json:"meter"`
}

// StatsBetween derives WindowStats from two snapshots of the same system,
// p0 the older and p1 the newer.
func StatsBetween(p0, p1 *WindowPoint) WindowStats {
	m0, _, ops0, _ := p0.Totals()
	m1, sz1, ops1, _ := p1.Totals()
	d := m1.Diff(m0)
	st := WindowStats{
		Span:  p1.At.Sub(p0.At),
		Ops:   ops1 - ops0,
		RO:    d.ReadAmplification(),
		UO:    d.WriteAmplification(),
		MO:    sz1.SpaceAmplification(),
		Meter: d,
	}
	if s := st.Span.Seconds(); s > 0 {
		st.OpsPerSec = float64(st.Ops) / s
	}
	if st.Ops > 0 {
		st.ReadBytesPerOp = float64(d.PhysicalRead()) / float64(st.Ops)
		st.WriteBytesPerOp = float64(d.PhysicalWritten()) / float64(st.Ops)
	}
	if p0.Latency != nil && p1.Latency != nil {
		lat := p1.Latency.Diff(p0.Latency)
		if lat.Count() > 0 {
			st.P50 = lat.QuantileDuration(0.50)
			st.P99 = lat.QuantileDuration(0.99)
		}
	}
	if p0.Phases != nil && p1.Phases != nil {
		if q := p1.Phases.Queue.Diff(p0.Phases.Queue); q.Count() > 0 {
			st.QueueP50 = q.QuantileDuration(0.50)
			st.QueueP99 = q.QuantileDuration(0.99)
		}
		if sv := p1.Phases.Service.Diff(p0.Phases.Service); sv.Count() > 0 {
			st.ServiceP50 = sv.QuantileDuration(0.50)
			st.ServiceP99 = sv.QuantileDuration(0.99)
		}
	}
	st.Balance = shardBalance(p0, p1)
	return st
}

// shardBalance returns min/max of per-shard op deltas between two points,
// matching shards by id. Degenerate cases (one shard, no traffic, shard
// sets that do not match) report 1 — balanced by absence of evidence.
func shardBalance(p0, p1 *WindowPoint) float64 {
	if len(p1.Shards) <= 1 || len(p0.Shards) != len(p1.Shards) {
		return 1
	}
	prev := make(map[int]uint64, len(p0.Shards))
	for _, s := range p0.Shards {
		prev[s.Shard] = s.Ops
	}
	min, max := ^uint64(0), uint64(0)
	for _, s := range p1.Shards {
		d := s.Ops - prev[s.Shard]
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return 1
	}
	return float64(min) / float64(max)
}

// Window derives WindowStats over (approximately) the last w of wall time:
// the newest retained point versus the oldest retained point no older than
// w before it. When no retained point lies inside the window — a sampler
// stalled for longer than w behind a shard's long compaction — the stats
// span the newest pair, never the whole ring. A non-positive w is rejected
// (ok false) — it would silently degenerate to the newest pair, which is a
// different measurement than the caller asked for. With fewer than two
// points there is no window and ok is false. The ring's capacity bounds how
// far back a window can reach — size rings as capacity ≥ w / sampling
// interval.
func (r *Rolling) Window(w time.Duration) (stats WindowStats, ok bool) {
	if w <= 0 {
		return WindowStats{}, false
	}
	pts := r.Points()
	if len(pts) < 2 {
		return WindowStats{}, false
	}
	p1 := pts[len(pts)-1]
	cutoff := p1.At.Add(-w)
	p0 := pts[len(pts)-2]
	for _, p := range pts[:len(pts)-2] {
		if !p.At.Before(cutoff) {
			p0 = p
			break
		}
	}
	return StatsBetween(p0, p1), true
}

// The live telemetry planes. Each plane of a daemon's /metrics scrape is a
// Source over the ring that owns its families, defined beside the type it
// renders: the core RUM gauges and the durability plane here, the workload
// plane in workload.go, the latency histograms in phase.go, the
// storage-event counters in obs.go. A source reads nothing but the ring, so
// every series of one scrape describes the same sampling instant and no
// scrape touches a shard. A daemon registers the planes whose feature is on,
// in rendering order; an unregistered plane contributes no family.

// newest returns the newest point, or an empty one before the first sample:
// a plane then renders its families with zero values and no per-shard rows
// instead of branching on a nil point.
func (r *Rolling) newest() *WindowPoint {
	if last := r.Last(); last != nil {
		return last
	}
	return &WindowPoint{Latency: NewLatencyHistogram()}
}

// shardLabel is the {shard="i"} label of a per-shard series.
func shardLabel(shard int) []Label { return L("shard", strconv.Itoa(shard)) }

// RUMSource is the core plane: the cumulative RUM point and request totals
// of the newest sample, the rolling-window rates and quantiles over the last
// window of wall time, per-shard op counters, and the MVCC read-path gauges.
func (r *Rolling) RUMSource(window time.Duration) Source {
	return SourceFunc(func(e *Encoder) {
		last := r.newest()
		m, sz, ops, records := last.Totals()
		e.Counter("rum_requests_total", "Requests executed by the shards, from the newest snapshot.", ops)
		e.GaugeUint("rum_records", "Records live across all shards.", uint64(records))
		e.Gauge("rum_ro", "Cumulative read amplification (physical read bytes per logical read byte).", m.ReadAmplification())
		e.Gauge("rum_uo", "Cumulative write amplification (physical written bytes per logical written byte).", m.WriteAmplification())
		e.Gauge("rum_mo", "Space amplification at the newest snapshot (stored bytes per base byte).", sz.SpaceAmplification())

		st, ok := r.Window(window)
		if !ok {
			st.Balance = 1 // no window yet: balanced by absence of evidence
		}
		e.Gauge("rum_window_seconds", "Actual span of the rolling window behind the _window gauges.", st.Span.Seconds())
		e.Gauge("rum_ro_window", "Read amplification of the traffic inside the rolling window alone.", st.RO)
		e.Gauge("rum_uo_window", "Write amplification of the traffic inside the rolling window alone.", st.UO)
		e.Gauge("rum_mo_window", "Space amplification at the window's newest instant.", st.MO)
		e.Gauge("rum_window_ops_per_sec", "Request throughput over the rolling window.", st.OpsPerSec)
		e.Gauge("rum_window_read_bytes_per_op", "Physical bytes read per request over the rolling window.", st.ReadBytesPerOp)
		e.Gauge("rum_window_write_bytes_per_op", "Physical bytes written per request over the rolling window.", st.WriteBytesPerOp)
		e.Gauge("rum_window_p50_ns", "Median batch latency of requests completed inside the rolling window.", float64(st.P50))
		e.Gauge("rum_window_p99_ns", "p99 batch latency of requests completed inside the rolling window.", float64(st.P99))
		e.Gauge("rum_window_queue_p99_seconds", "p99 mailbox queue wait of ops executed inside the rolling window.", st.QueueP99.Seconds())
		e.Gauge("rum_window_service_p99_seconds", "p99 service time of ops executed inside the rolling window.", st.ServiceP99.Seconds())
		e.Gauge("rum_shard_balance", "min/max per-shard ops inside the rolling window (1 = even).", st.Balance)

		e.Family("rum_shard_ops_total", "counter", "Requests executed per shard, from the newest snapshot.")
		for _, s := range last.Shards {
			e.Uint("rum_shard_ops_total", shardLabel(s.Shard), s.Ops)
		}
		e.Family("rum_snapshot_versions", "gauge", "Retained MVCC snapshot versions per shard (0 when snapshot serving is off).")
		for _, s := range last.Shards {
			e.Uint("rum_snapshot_versions", shardLabel(s.Shard), uint64(s.SnapVersions))
		}
		mailbox := func(name, help string, count func(MailboxPoint) uint64) {
			e.Family(name, "counter", help)
			for _, s := range last.Shards {
				e.Uint(name, shardLabel(s.Shard), count(s.Mailbox))
			}
		}
		mailbox("rum_serve_mailbox_idle_periods_total", "Times a shard found its mailbox empty.",
			func(m MailboxPoint) uint64 { return m.IdlePeriods })
		mailbox("rum_serve_mailbox_polled_total", "Idle periods ended by a message found while polling: a park/unpark round trip saved.",
			func(m MailboxPoint) uint64 { return m.Polled })
		mailbox("rum_serve_mailbox_parked_total", "Idle periods that ended in the blocking receive.",
			func(m MailboxPoint) uint64 { return m.Parked })
		mailbox("rum_serve_mailbox_backoffs_total", "Yields that outlasted the poll window (oversubscribed processors), each suspending polling for a stretch of idle periods.",
			func(m MailboxPoint) uint64 { return m.Backoffs })
		e.Family("rum_serve_mailbox_poll_seconds_total", "counter", "Wall time shards spent polling an empty mailbox before a message or a park.")
		for _, s := range last.Shards {
			e.Float("rum_serve_mailbox_poll_seconds_total", shardLabel(s.Shard), float64(s.Mailbox.PollNanos)/1e9)
		}
		e.GaugeUint("rum_reader_concurrency", "Snapshot bypass readers executing right now on client goroutines.", uint64(last.Readers))
		e.Counter("rum_snapshot_reads_total", "Requests served from MVCC snapshots, bypassing the shard mailbox.", last.SnapReads)
	})
}

// WALSource is the durability plane of a write-ahead-logged server: the
// shards' log ledgers summed at the newest sample.
func (r *Rolling) WALSource() Source {
	return SourceFunc(func(e *Encoder) {
		var w WALPoint
		for _, s := range r.newest().Shards {
			if s.WAL != nil {
				w.Add(*s.WAL)
			}
		}
		e.Counter("rum_wal_committed_total", "Records durably group-committed across all shards (the DurableToCommit watermark).", w.Committed)
		e.Counter("rum_wal_commits_total", "Group commits across all shards.", w.Commits)
		e.Counter("rum_wal_syncs_total", "Simulated log syncs across all shards (one per commit, one per checkpoint record).", w.Syncs)
		e.Counter("rum_wal_checkpoints_total", "Completed checkpoints across all shards.", w.Checkpoints)
		e.Counter("rum_wal_checkpoint_records_total", "Overlay records checkpoints handed to the structures, across all shards.", w.CheckpointRecords)
		e.Family("rum_wal_checkpoint_seconds_total", "counter", "Wall-clock time shards spent checkpointing (the write stall), summed across shards.")
		e.Float("rum_wal_checkpoint_seconds_total", nil, float64(w.CheckpointNanos)/1e9)
		e.Family("rum_wal_log_pages_total", "counter", "Log pages across all shards, by disposition.")
		e.Uint("rum_wal_log_pages_total", L("event", "written"), w.LogPagesWritten)
		e.Uint("rum_wal_log_pages_total", L("event", "recycled"), w.PagesRecycled)
		e.Counter("rum_wal_log_bytes_total", "Log bytes appended across all shards (headers and payload, not page slack).", w.LogBytesWritten)
		e.GaugeUint("rum_wal_live_log_pages", "Log pages not yet recycled, across all shards.", uint64(w.LiveLogPages))
		e.GaugeUint("rum_wal_overlay_records", "Logged records not yet absorbed into the structures by a checkpoint.", uint64(w.OverlayRecords))
	})
}
