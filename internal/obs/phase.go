package obs

import (
	"time"

	"repro/internal/rum"
	"repro/internal/storage"
)

// Request lifecycle phases. The serving layer stamps every mailbox message
// at enqueue and decomposes each executed operation into queue wait (enqueue
// to execution start) and service time (execution itself); a PhaseRecorder
// is the per-shard sink for that decomposition. It follows the single-owner
// contract of everything else beneath a shard: only the shard goroutine
// records, and other goroutines see the state exclusively through immutable
// Snapshot clones published over the mailbox (the same happens-before edge
// every ShardReport rides). A nil recorder is the disabled state — the
// serving hot path then pays one nil check and allocates nothing.

// Exemplar is the worst recent operation that landed in one service-time
// bucket: a concrete trace a histogram bucket can be blamed on. Buckets
// index the power-of-two nanosecond latency layout (NewLatencyHistogram).
type Exemplar struct {
	Bucket  int           `json:"bucket"` // service-histogram bucket index
	Op      string        `json:"op"`
	Key     uint64        `json:"key"`
	Shard   int           `json:"shard"`
	Queue   time.Duration `json:"queue_ns"`
	Service time.Duration `json:"service_ns"`
	Total   time.Duration `json:"total_ns"`
	Pages   uint64        `json:"pages"`
	Run     int           `json:"run"` // SlowTrace.Run: ops sharing the span and pages
	At      time.Time     `json:"at"`
}

// exemplarTTL bounds how long a bucket's exemplar survives without being
// beaten: past it, any new op in the bucket replaces the stale champion, so
// exemplars describe recent traffic rather than a startup outlier.
const exemplarTTL = time.Minute

// PhaseRecorder accumulates one shard's lifecycle decomposition: queue-wait
// and service-time histograms (power-of-two nanosecond buckets, Clone/Diff
// compatible with the rolling-window plane), a batch-size histogram (ops
// per mailbox message), and one exemplar per service bucket.
//
// PhaseRecorder is also the shard's storage-event ledger: the one
// storage.Hook of the shard's storage stack (methods.Options.Hook, set on
// the device, which the pool reports through), it lands every device, pool,
// and fault-path event in one cumulative PageCounts — the Observer's counter
// switch — published with every Snapshot. The pages/faults/retries charged
// between BeginOpWork and OpWork are the operation in flight's, as
// differences against three baseline words; unwired, the ledger stays zero
// and traces carry meter-derived byte counts only.
type PhaseRecorder struct {
	queue   *Histogram
	service *Histogram
	batch   *Histogram
	ex      []Exemplar // one slot per service bucket; Total==0 means empty

	// pages is the cumulative storage-event ledger; the base words are its
	// touched-pages, fault, and retry counts when the in-flight op began.
	pages                              PageCounts
	basePages, baseFaults, baseRetries uint64
}

// batchBuckets covers 1 .. 2^15 operations per mailbox message.
const batchBuckets = 16

// NewPhaseRecorder returns an empty recorder.
func NewPhaseRecorder() *PhaseRecorder {
	return &PhaseRecorder{
		queue:   NewLatencyHistogram(),
		service: NewLatencyHistogram(),
		batch:   NewHistogram(PowerOfTwoBounds(batchBuckets)),
		ex:      make([]Exemplar, latencyBuckets+1),
	}
}

// StorageEvent implements storage.Hook: the event joins the shard's ledger,
// and through it the operation currently in flight.
func (r *PhaseRecorder) StorageEvent(ev storage.Event, _ storage.PageID, class rum.Class, cost uint64) {
	r.pages.add(ev, class, cost)
}

// StorageBatch implements storage.Hook: one amortized submission whose
// per-page events already arrived through StorageEvent.
func (r *PhaseRecorder) StorageBatch(_ bool, pages, _ int, _ uint64) { r.pages.addBatch(pages) }

// BeginOpWork marks the ledger's position for the next operation.
func (r *PhaseRecorder) BeginOpWork() {
	r.basePages, r.baseFaults, r.baseRetries = r.pages.touched(), r.pages.Faults, r.pages.Retries
}

// OpWork returns the device work charged since BeginOpWork: device pages
// touched, faults (torn writes included), and pool retry attempts.
func (r *PhaseRecorder) OpWork() (pages, faults, retries uint64) {
	return r.pages.touched() - r.basePages, r.pages.Faults - r.baseFaults, r.pages.Retries - r.baseRetries
}

// RecordBatch counts one mailbox message carrying n operations.
func (r *PhaseRecorder) RecordBatch(n int) { r.batch.Record(float64(n)) }

// ObserveOp records one operation's decomposition in the queue and service
// histograms and reports the op's service bucket and whether the op takes
// over that bucket's exemplar: the slot is empty, the op's total latency is
// at least the incumbent's, or the incumbent is older than a minute — "worst
// recent", not "worst ever". at is the op's completion instant in Unix
// nanoseconds. Nothing here needs the op's trace: the caller assembles one
// only for an op that was admitted, and hands it to SetExemplar.
func (r *PhaseRecorder) ObserveOp(queue, service, total time.Duration, at int64) (bucket int, exemplar bool) {
	r.queue.RecordDuration(queue)
	b := r.service.RecordDuration(service)
	cur := &r.ex[b]
	return b, cur.Total == 0 || total >= cur.Total || at-cur.At.UnixNano() > int64(exemplarTTL)
}

// SetExemplar makes t the exemplar of the service bucket ObserveOp admitted
// it to.
func (r *PhaseRecorder) SetExemplar(bucket int, t *SlowTrace) {
	r.ex[bucket] = Exemplar{
		Bucket: bucket, Op: t.Op, Key: t.Key, Shard: t.Shard,
		Queue: t.Queue, Service: t.Service, Total: t.Total,
		Pages: t.Pages, Run: t.Run, At: t.At,
	}
}

// PhaseSnapshot is an immutable copy of a recorder's state, safe to publish
// across goroutines and to Merge with other shards' snapshots. Histograms
// are cumulative clones, so two snapshots of the same system Diff into the
// distribution of the traffic between them — which is how the rolling
// window derives queue-p99 and service-p99.
type PhaseSnapshot struct {
	Queue   *Histogram
	Service *Histogram
	Batch   *Histogram
	// Exemplars holds the occupied service-bucket exemplars, bucket order.
	Exemplars []Exemplar
	// Pages is the recorder's cumulative storage-event ledger (zero when the
	// recorder was not wired into a storage stack). Device reads and writes
	// in it reconcile exactly with the shard meter's physical bytes.
	Pages PageCounts
}

// Snapshot clones the recorder's state. Called by the owning shard
// goroutine only; the clone is immutable afterwards.
func (r *PhaseRecorder) Snapshot() *PhaseSnapshot {
	s := &PhaseSnapshot{
		Queue:   r.queue.Clone(),
		Service: r.service.Clone(),
		Batch:   r.batch.Clone(),
		Pages:   r.pages,
	}
	for _, e := range r.ex {
		if e.Total != 0 {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
	return s
}

// Merge folds o into s: histograms merge bucket-wise, storage-event ledgers
// add; per bucket the worse (larger-total) exemplar wins. Merging per-shard snapshots taken at one
// sampling instant yields the server-wide phase state at that instant.
func (s *PhaseSnapshot) Merge(o *PhaseSnapshot) {
	if o == nil {
		return
	}
	s.Queue.Merge(o.Queue)
	s.Service.Merge(o.Service)
	s.Batch.Merge(o.Batch)
	s.Pages.Merge(o.Pages)
	var best [latencyBuckets + 1]Exemplar // Total == 0 marks an empty slot
	for _, es := range [][]Exemplar{s.Exemplars, o.Exemplars} {
		for _, e := range es {
			if e.Total > best[e.Bucket].Total {
				best[e.Bucket] = e
			}
		}
	}
	s.Exemplars = s.Exemplars[:0]
	for _, e := range best {
		if e.Total != 0 {
			s.Exemplars = append(s.Exemplars, e)
		}
	}
}

// Clone returns an independent deep copy.
func (s *PhaseSnapshot) Clone() *PhaseSnapshot {
	if s == nil {
		return nil
	}
	return &PhaseSnapshot{
		Queue:     s.Queue.Clone(),
		Service:   s.Service.Clone(),
		Batch:     s.Batch.Clone(),
		Exemplars: append([]Exemplar(nil), s.Exemplars...),
		Pages:     s.Pages,
	}
}

// PhaseSource is the latency plane at the newest sample: the clients'
// per-batch latency histogram, the per-op queue-wait and service-time
// histograms (base-unit seconds from the same nanosecond buckets; service
// buckets carry exemplars, the worst recent op that landed in each), the
// batch-size histogram, and mailbox depths. The lifecycle families appear
// with the first traced sample.
func (r *Rolling) PhaseSource() Source {
	return SourceFunc(func(e *Encoder) {
		last := r.newest()
		e.Family("rum_request_latency_ns", "histogram", "Per-batch request latency in nanoseconds (power-of-two buckets).")
		e.Histo("rum_request_latency_ns", nil, last.Latency)
		if ph := last.Phases; ph != nil {
			e.Family("rum_queue_wait_seconds", "histogram", "Per-op mailbox queue wait (enqueue to execution start) in seconds.")
			e.HistoScaled("rum_queue_wait_seconds", nil, ph.Queue, 1e-9, nil)
			e.Family("rum_service_seconds", "histogram", "Per-op service time (execution only) in seconds; bucket exemplars carry the worst recent op.")
			e.HistoScaled("rum_service_seconds", nil, ph.Service, 1e-9, ph.Exemplars)
			e.Family("rum_batch_size", "histogram", "Operations carried per mailbox message.")
			e.Histo("rum_batch_size", nil, ph.Batch)
		}
		e.Family("rum_mailbox_depth", "gauge", "Mailbox occupancy in messages, per shard.")
		for i, depth := range last.MailboxDepth {
			e.Uint("rum_mailbox_depth", shardLabel(i), uint64(depth))
		}
	})
}
