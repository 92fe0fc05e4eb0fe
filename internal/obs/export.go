package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// SpanJSON is the flat JSONL encoding of one Span. Field order is fixed by
// the struct, so traces are byte-stable across runs with the same seed.
type SpanJSON struct {
	Seq            uint64 `json:"seq"`
	Method         string `json:"method"`
	Op             string `json:"op"`
	BaseRead       uint64 `json:"base_read"`
	AuxRead        uint64 `json:"aux_read"`
	BaseWritten    uint64 `json:"base_written"`
	AuxWritten     uint64 `json:"aux_written"`
	LogicalRead    uint64 `json:"logical_read"`
	LogicalWritten uint64 `json:"logical_written"`
	PageReadsBase  uint64 `json:"page_reads_base"`
	PageReadsAux   uint64 `json:"page_reads_aux"`
	PageWritesBase uint64 `json:"page_writes_base"`
	PageWritesAux  uint64 `json:"page_writes_aux"`
	PoolHits       uint64 `json:"pool_hits"`
	PoolMisses     uint64 `json:"pool_misses"`
	PoolEvictions  uint64 `json:"pool_evictions"`
	PoolWriteBacks uint64 `json:"pool_writebacks"`
	CostUnits      uint64 `json:"cost_units"`
	// Fault-path counters are omitted when zero, so fault-free traces are
	// byte-identical to those of builds without fault injection.
	Faults     uint64 `json:"faults,omitempty"`
	TornWrites uint64 `json:"torn_writes,omitempty"`
	Crashes    uint64 `json:"crashes,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	FaultCost  uint64 `json:"fault_cost_units,omitempty"`
	// Batch-submission counters are likewise omitted when zero, keeping
	// flat-media traces byte-identical to pre-batching ones.
	Batches      uint64 `json:"batches,omitempty"`
	BatchedPages uint64 `json:"batched_pages,omitempty"`
}

// ToJSON converts a span to its export form.
func (s Span) ToJSON() SpanJSON {
	return SpanJSON{
		Seq:            s.Seq,
		Method:         s.Method,
		Op:             s.Op,
		BaseRead:       s.Meter.BaseRead,
		AuxRead:        s.Meter.AuxRead,
		BaseWritten:    s.Meter.BaseWritten,
		AuxWritten:     s.Meter.AuxWritten,
		LogicalRead:    s.Meter.LogicalRead,
		LogicalWritten: s.Meter.LogicalWritten,
		PageReadsBase:  s.Pages.BaseReads,
		PageReadsAux:   s.Pages.AuxReads,
		PageWritesBase: s.Pages.BaseWrites,
		PageWritesAux:  s.Pages.AuxWrites,
		PoolHits:       s.Pages.Hits,
		PoolMisses:     s.Pages.Misses,
		PoolEvictions:  s.Pages.Evictions,
		PoolWriteBacks: s.Pages.WriteBacks,
		CostUnits:      s.Pages.Cost,
		Faults:         s.Pages.Faults,
		TornWrites:     s.Pages.TornWrites,
		Crashes:        s.Pages.Crashes,
		Retries:        s.Pages.Retries,
		FaultCost:      s.Pages.FaultCost,
		Batches:        s.Pages.Batches,
		BatchedPages:   s.Pages.BatchedPages,
	}
}

// WriteTrace writes every retained span as one JSON object per line.
func (o *Observer) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range o.spans {
		if err := enc.Encode(s.ToJSON()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTimeSeries writes the sampled RUM trajectory as CSV. Cumulative
// read/write amplification (ro, uo) give the headline trajectory; windowed
// amplification (ro_win, uo_win) expose bursts between samples; mo is the
// space amplification measured at sampling time.
func (o *Observer) WriteTimeSeries(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "seq,method,base_read,aux_read,base_written,aux_written,logical_read,logical_written,ro,uo,mo,ro_win,uo_win,cost_units"); err != nil {
		return err
	}
	for _, s := range o.samples {
		_, err := fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%d\n",
			s.Seq, s.Method,
			s.Cum.BaseRead, s.Cum.AuxRead, s.Cum.BaseWritten, s.Cum.AuxWritten,
			s.Cum.LogicalRead, s.Cum.LogicalWritten,
			fmtFloat(s.Cum.ReadAmplification()), fmtFloat(s.Cum.WriteAmplification()),
			fmtFloat(s.MO),
			fmtFloat(s.Win.ReadAmplification()), fmtFloat(s.Win.WriteAmplification()),
			s.Cost)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMetrics writes a Prometheus text-format exposition of the run:
// page-event counters, traced byte counters, per-(method, op) operation
// counts, and the pages-touched and amplification histograms. It shares the
// exposition encoder with the live scrape path (Registry), so a file export
// and a /metrics scrape render identically.
func (o *Observer) WriteMetrics(w io.Writer) error {
	e := NewEncoder(w)
	o.CollectMetrics(e)
	return e.Flush()
}

// CollectMetrics implements Source, emitting the run's metrics through the
// shared exposition encoder. An Observer is single-goroutine, so collecting
// it live is only safe from the goroutine that owns it; the live plane
// (cmd/rumserve) instead collects snapshot-derived sources.
func (o *Observer) CollectMetrics(e *Encoder) {
	e.Family("rum_pages_total", "counter", "Device page operations observed, by direction and data class.")
	e.Uint("rum_pages_total", L("dir", "read", "class", "base"), o.total.BaseReads)
	e.Uint("rum_pages_total", L("dir", "read", "class", "aux"), o.total.AuxReads)
	e.Uint("rum_pages_total", L("dir", "write", "class", "base"), o.total.BaseWrites)
	e.Uint("rum_pages_total", L("dir", "write", "class", "aux"), o.total.AuxWrites)

	e.Family("rum_pool_events_total", "counter", "Buffer pool events observed.")
	e.Uint("rum_pool_events_total", L("event", "hit"), o.total.Hits)
	e.Uint("rum_pool_events_total", L("event", "miss"), o.total.Misses)
	e.Uint("rum_pool_events_total", L("event", "eviction"), o.total.Evictions)
	e.Uint("rum_pool_events_total", L("event", "writeback"), o.total.WriteBacks)

	e.Family("rum_fault_events_total", "counter", "Fault-path events observed: injected faults, torn writes, crash points, retry attempts.")
	e.Uint("rum_fault_events_total", L("event", "fault"), o.total.Faults)
	e.Uint("rum_fault_events_total", L("event", "torn"), o.total.TornWrites)
	e.Uint("rum_fault_events_total", L("event", "crash"), o.total.Crashes)
	e.Uint("rum_fault_events_total", L("event", "retry"), o.total.Retries)

	e.Counter("rum_cost_units_total", "Medium-weighted cost units observed (successful traffic; reconciles with DeviceStats.CostUnits).", o.total.Cost)

	e.Counter("rum_fault_cost_units_total", "Medium-weighted cost of failed operations (EvFault/EvTorn/EvCrash payloads); counted apart from rum_cost_units_total.", o.total.FaultCost)

	e.Counter("rum_batch_submissions_total", "Amortized batch submissions observed (multi-queue media only).", o.total.Batches)

	e.Counter("rum_batched_pages_total", "Pages carried by amortized batch submissions.", o.total.BatchedPages)

	e.Family("rum_traced_bytes_total", "counter", "Bytes accumulated by traced spans, by kind, direction, and class.")
	e.Uint("rum_traced_bytes_total", L("kind", "physical", "dir", "read", "class", "base"), o.traced.BaseRead)
	e.Uint("rum_traced_bytes_total", L("kind", "physical", "dir", "read", "class", "aux"), o.traced.AuxRead)
	e.Uint("rum_traced_bytes_total", L("kind", "physical", "dir", "write", "class", "base"), o.traced.BaseWritten)
	e.Uint("rum_traced_bytes_total", L("kind", "physical", "dir", "write", "class", "aux"), o.traced.AuxWritten)
	e.Uint("rum_traced_bytes_total", L("kind", "logical", "dir", "read"), o.traced.LogicalRead)
	e.Uint("rum_traced_bytes_total", L("kind", "logical", "dir", "write"), o.traced.LogicalWritten)

	e.Family("rum_untraced_pages_total", "counter", "Device page operations that arrived outside any span.")
	e.Uint("rum_untraced_pages_total", L("dir", "read"), o.untraced.Reads())
	e.Uint("rum_untraced_pages_total", L("dir", "write"), o.untraced.Writes())

	e.Counter("rum_spans_dropped_total", "Spans discarded after the retention cap.", o.dropped)

	keys := o.HistKeys()

	e.Family("rum_ops_total", "counter", "Traced logical operations.")
	for _, k := range keys {
		e.Uint("rum_ops_total", L("method", k.Method, "op", k.Op), o.ops[k])
	}

	writeHist := func(name, help string, pick func(*OpHist) *Histogram) {
		e.Family(name, "histogram", help)
		for _, k := range keys {
			e.Histo(name, L("method", k.Method, "op", k.Op), pick(o.hists[k]))
		}
	}
	writeHist("rum_op_pages", "Device pages touched per traced operation.",
		func(h *OpHist) *Histogram { return h.Pages })
	writeHist("rum_op_amplification", "Physical bytes per logical byte, per traced operation.",
		func(h *OpHist) *Histogram { return h.Amp })
}
