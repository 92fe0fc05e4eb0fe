// Package obs is the observability layer of the repository: per-operation
// span tracing, per-operation amplification and page-touch histograms, and a
// periodic RUM time-series sampler, with JSONL / CSV / Prometheus-style
// exporters.
//
// The paper's argument is an accounting argument — RO/UO/MO ratios and how
// they evolve as structures adapt — but end-of-run rum.Meter totals hide
// *when* amplification happens (compaction bursts), *where* (base vs
// auxiliary pages, device vs pool), and the per-operation tail. An Observer
// closes that gap: it implements core.OpObserver, so a core.Instrumented
// wrapper opens a span per logical operation, and storage.Hook, so every
// physical page event between span boundaries is attributed to the
// operation that caused it.
//
// Everything is nil-safe by construction: an unattached structure pays one
// pointer comparison per operation and per page event, and nothing
// allocates on the untraced path.
package obs

import (
	"sort"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// Config tunes an Observer. The zero value is usable.
type Config struct {
	// SampleEvery is the number of completed operations between RUM
	// time-series samples (default 256).
	SampleEvery int
	// MaxSpans caps retained spans to bound memory on long runs; spans past
	// the cap are counted in Dropped() but still feed histograms, totals and
	// the time series (default 1 << 20).
	MaxSpans int
}

func (c *Config) defaults() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 1 << 20
	}
}

// PageCounts aggregates physical storage events. Device-level reads and
// writes are split by rum.Class; pool-level events count pool behaviour.
// Cost accumulates the medium-weighted cost units of the device traffic.
type PageCounts struct {
	BaseReads  uint64
	AuxReads   uint64
	BaseWrites uint64
	AuxWrites  uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Cost       uint64
	// Fault-path events (internal/faults): injected device faults, torn
	// writes, crash points, and pool retry attempts. A failed transfer
	// counts no read/write traffic — these counters are its only trace.
	Faults     uint64
	TornWrites uint64
	Crashes    uint64
	Retries    uint64
	// FaultCost is the medium-weighted cost of failed operations (the cost
	// payload of EvFault/EvTorn/EvCrash events). It is kept out of Cost so
	// Cost reconciles exactly with DeviceStats.CostUnits, which counts
	// successful traffic only.
	FaultCost uint64
	// Batches counts amortized batch submissions (storage.Hook.StorageBatch);
	// BatchedPages is the pages they carried. The per-page events of a batch
	// are already in the read/write counters and Cost — these two only
	// describe how the traffic was submitted.
	Batches      uint64
	BatchedPages uint64
}

// Reads returns total device page reads (base + aux).
func (c PageCounts) Reads() uint64 { return c.BaseReads + c.AuxReads }

// Writes returns total device page writes (base + aux).
func (c PageCounts) Writes() uint64 { return c.BaseWrites + c.AuxWrites }

// Touched returns the total device pages touched (reads + writes).
func (c PageCounts) Touched() uint64 { return c.touched() }

// touched is Touched read in place, for the per-op path of a ledger's owner:
// the value-receiver accessors copy the whole ledger to read four words.
func (c *PageCounts) touched() uint64 {
	return c.BaseReads + c.AuxReads + c.BaseWrites + c.AuxWrites
}

// Merge adds o's counters into c.
func (c *PageCounts) Merge(o PageCounts) {
	c.BaseReads += o.BaseReads
	c.AuxReads += o.AuxReads
	c.BaseWrites += o.BaseWrites
	c.AuxWrites += o.AuxWrites
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.WriteBacks += o.WriteBacks
	c.Cost += o.Cost
	c.Faults += o.Faults
	c.TornWrites += o.TornWrites
	c.Crashes += o.Crashes
	c.Retries += o.Retries
	c.FaultCost += o.FaultCost
	c.Batches += o.Batches
	c.BatchedPages += o.BatchedPages
}

// add counts one storage event — the one place in the repository a
// storage.Event becomes a counter, shared by the Observer's span and total
// ledgers and by every serving shard's PhaseRecorder.
func (c *PageCounts) add(ev storage.Event, class rum.Class, cost uint64) {
	switch ev {
	case storage.EvFault, storage.EvTorn, storage.EvCrash:
		// Failed operations count no device traffic; their cost payload is
		// the attempted cost, ledgered separately so Cost stays equal to
		// the device's CostUnits.
		c.FaultCost += cost
	default:
		c.Cost += cost
	}
	switch ev {
	case storage.EvRead:
		if class == rum.Base {
			c.BaseReads++
		} else {
			c.AuxReads++
		}
	case storage.EvWrite:
		if class == rum.Base {
			c.BaseWrites++
		} else {
			c.AuxWrites++
		}
	case storage.EvHit:
		c.Hits++
	case storage.EvMiss:
		c.Misses++
	case storage.EvEvict:
		c.Evictions++
	case storage.EvWriteBack:
		c.WriteBacks++
	case storage.EvFault:
		c.Faults++
	case storage.EvTorn:
		// A torn write is also a fault; EvTorn arrives instead of (not in
		// addition to) EvFault, so count it in both ledgers.
		c.Faults++
		c.TornWrites++
	case storage.EvCrash:
		c.Crashes++
	case storage.EvRetry:
		c.Retries++
	}
}

// addBatch counts one amortized batch submission; its per-page events
// arrive through add first (storage.Hook's batch contract).
func (c *PageCounts) addBatch(pages int) {
	c.Batches++
	c.BatchedPages += uint64(pages)
}

// ledger returns the newest sample's merged storage-event ledger.
func (r *Rolling) ledger() PageCounts {
	if ph := r.newest().Phases; ph != nil {
		return ph.Pages
	}
	return PageCounts{}
}

// StorageSource is the storage-event plane: device page operations and
// fault-path events from the newest sample's merged shard ledgers.
func (r *Rolling) StorageSource() Source {
	return SourceFunc(func(e *Encoder) {
		c := r.ledger()
		e.Family("rum_live_pages_total", "counter", "Device page operations across all shards, by direction.")
		e.Uint("rum_live_pages_total", L("dir", "read"), c.Reads())
		e.Uint("rum_live_pages_total", L("dir", "write"), c.Writes())
		e.Family("rum_fault_events_total", "counter", "Fault-path events across all shards: injected faults, torn writes, crash points, retry attempts.")
		e.Uint("rum_fault_events_total", L("event", "fault"), c.Faults)
		e.Uint("rum_fault_events_total", L("event", "torn"), c.TornWrites)
		e.Uint("rum_fault_events_total", L("event", "crash"), c.Crashes)
		e.Uint("rum_fault_events_total", L("event", "retry"), c.Retries)
	})
}

// BatchSource is the batched-I/O plane of a multi-queue medium: how much of
// the device traffic StorageSource counts was submitted in amortized batches.
func (r *Rolling) BatchSource() Source {
	return SourceFunc(func(e *Encoder) {
		c := r.ledger()
		e.Counter("rum_live_batch_submissions_total", "Amortized batch submissions across all shards.", c.Batches)
		e.Counter("rum_live_batched_pages_total", "Pages carried by amortized batch submissions across all shards.", c.BatchedPages)
	})
}

// Span is the record of one traced logical operation: the rum.Meter delta it
// caused (physical and logical bytes) and the physical page events that
// occurred while it was open. Nested operations (a bulkload falling back to
// inserts, a compaction inside an insert) are absorbed into the outermost
// span, so summing span deltas reconstructs the run's meter totals exactly.
type Span struct {
	Seq    uint64 // 1-based operation sequence number across the run
	Method string // label of the structure the operation ran against
	Op     string // core.OpName* constant
	Meter  rum.Meter
	Pages  PageCounts
}

// Sample is one point of the RUM trajectory: the cumulative meter of the
// current target at a moment of the run, the window delta since the previous
// sample, and the space amplification measured at sampling time. Windowed
// amplifications make bursts (compactions, adaptation) visible where
// cumulative ratios smooth them away.
type Sample struct {
	Seq    uint64 // operation sequence number at sampling time
	Method string
	Cum    rum.Meter
	Win    rum.Meter
	MO     float64
	Cost   uint64 // cumulative observed cost units
}

// OpKey identifies one histogram family: a (structure, operation) pair.
type OpKey struct {
	Method string
	Op     string
}

// OpHist holds the per-operation distributions for one (method, op) pair.
type OpHist struct {
	// Pages is the distribution of device pages touched per operation.
	Pages *Histogram
	// Amp is the distribution of per-operation amplification: physical
	// bytes moved per logical byte of the operation's payload. Operations
	// with no logical payload (flushes) are not recorded here.
	Amp *Histogram
}

// Observer collects spans, histograms, and time-series samples for one run.
// It observes one target structure at a time (Target re-points it) but may
// be attached as the storage.Hook of any number of devices (each device's
// pools report through it), e.g. by threading it through
// methods.Options.Hook. Observer is not safe for concurrent use, matching
// the rest of the simulation substrate.
type Observer struct {
	cfg Config

	// Current target.
	method string
	meter  *rum.Meter
	size   func() rum.SizeInfo

	// Span state.
	depth int
	curOp string
	start rum.Meter
	pages PageCounts

	seq        uint64
	spans      []Span
	dropped    uint64
	total      PageCounts // all attributed events across the run
	untraced   PageCounts // events arriving outside any span
	traced     rum.Meter  // sum of span meter deltas
	hists      map[OpKey]*OpHist
	ops        map[OpKey]uint64
	samples    []Sample
	lastSample rum.Meter
	sinceSamp  int
}

// New creates an Observer.
func New(cfg Config) *Observer {
	cfg.defaults()
	return &Observer{
		cfg:   cfg,
		hists: make(map[OpKey]*OpHist),
		ops:   make(map[OpKey]uint64),
	}
}

// Target points the observer at a structure: subsequent spans carry the
// given method label and meter deltas are taken from the structure's meter.
// The observer registers itself as the wrapper's OpObserver and records a
// baseline time-series sample. Call Target before preloading so the load is
// traced too. Re-targeting closes out the previous target's sampling window.
func (o *Observer) Target(am *core.Instrumented, method string) {
	if o.meter != nil && o.sinceSamp > 0 {
		o.sample()
	}
	o.method = method
	o.meter = am.Meter()
	o.size = am.Size
	o.lastSample = o.meter.Snapshot()
	o.sinceSamp = 0
	am.SetObserver(o)
	o.sample() // baseline point so trajectories start at the load state
}

// BeginOp implements core.OpObserver. Nested operations attribute to the
// outermost open span.
func (o *Observer) BeginOp(op string) {
	o.depth++
	if o.depth > 1 {
		return
	}
	o.curOp = op
	if o.meter != nil {
		o.start = *o.meter
	}
	o.pages = PageCounts{}
}

// EndOp implements core.OpObserver, closing the current span.
func (o *Observer) EndOp(op string) {
	o.depth--
	if o.depth > 0 {
		return
	}
	o.depth = 0
	var d rum.Meter
	if o.meter != nil {
		d = o.meter.Diff(o.start)
	}
	o.seq++
	o.traced.Add(d)
	key := OpKey{Method: o.method, Op: o.curOp}
	o.ops[key]++
	h, ok := o.hists[key]
	if !ok {
		h = &OpHist{
			Pages: NewHistogram(PowerOfTwoBounds(21)), // up to 2^20 pages/op
			Amp:   NewHistogram(PowerOfTwoBounds(25)), // up to 2^24x amplification
		}
		o.hists[key] = h
	}
	h.Pages.Record(float64(o.pages.Touched()))
	if logical := d.LogicalRead + d.LogicalWritten; logical > 0 {
		physical := d.PhysicalRead() + d.PhysicalWritten()
		h.Amp.Record(float64(physical) / float64(logical))
	}
	if uint64(len(o.spans)) < uint64(o.cfg.MaxSpans) {
		o.spans = append(o.spans, Span{Seq: o.seq, Method: o.method, Op: o.curOp, Meter: d, Pages: o.pages})
	} else {
		o.dropped++
	}
	o.pages = PageCounts{}
	o.sinceSamp++
	if o.sinceSamp >= o.cfg.SampleEvery {
		o.sample()
	}
}

// StorageEvent implements storage.Hook: the event is attributed to the open
// span, or to the untraced counters when no span is open.
func (o *Observer) StorageEvent(ev storage.Event, _ storage.PageID, class rum.Class, cost uint64) {
	o.total.add(ev, class, cost)
	if o.depth > 0 {
		o.pages.add(ev, class, cost)
	} else {
		o.untraced.add(ev, class, cost)
	}
}

// StorageBatch implements storage.Hook: one amortized batch submission,
// attributed like any page event. The batch's per-page events arrived first
// (storage.Hook's batch contract), so totals already hold its traffic and
// cost — this records only the submission shape (count and pages carried).
func (o *Observer) StorageBatch(_ bool, pages, _ int, _ uint64) {
	o.total.addBatch(pages)
	if o.depth > 0 {
		o.pages.addBatch(pages)
	} else {
		o.untraced.addBatch(pages)
	}
}

func (o *Observer) sample() {
	o.sinceSamp = 0
	if o.meter == nil {
		return
	}
	cum := o.meter.Snapshot()
	s := Sample{
		Seq:    o.seq,
		Method: o.method,
		Cum:    cum,
		Win:    cum.Diff(o.lastSample),
		Cost:   o.total.Cost,
	}
	if o.size != nil {
		s.MO = o.size().SpaceAmplification()
	}
	o.samples = append(o.samples, s)
	o.lastSample = cum
}

// Spans returns the retained spans in operation order.
func (o *Observer) Spans() []Span { return o.spans }

// Samples returns the RUM time series in sampling order.
func (o *Observer) Samples() []Sample { return o.samples }

// Dropped returns the number of spans discarded after MaxSpans was reached.
func (o *Observer) Dropped() uint64 { return o.dropped }

// Totals returns all page events observed across the run.
func (o *Observer) Totals() PageCounts { return o.total }

// HistKeys returns every (method, op) pair with recorded histograms, sorted
// for deterministic export.
func (o *Observer) HistKeys() []OpKey {
	keys := make([]OpKey, 0, len(o.hists))
	for k := range o.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Method != keys[j].Method {
			return keys[i].Method < keys[j].Method
		}
		return keys[i].Op < keys[j].Op
	})
	return keys
}
