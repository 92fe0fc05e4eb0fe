package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// This file is the single Prometheus text-format encoder of the repository.
// Two consumers share it: the post-hoc file exporter (Observer.WriteMetrics,
// rumbench -metrics) and the live scrape path (Registry, cmd/rumserve's
// GET /metrics). Keeping one encoder means one set of formatting rules —
// HELP/TYPE preambles, label quoting, le-bound rendering — and a single
// lint test (expo_test.go) that holds every emitted series to them.

// fmtFloat renders a float for CSV: fixed precision, "inf" for +Inf so
// spreadsheet tooling doesn't choke on Go's "+Inf".
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsNaN(v) {
		return "nan"
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// fmtLe renders a histogram bound (or any exposition float) as Prometheus
// text: shortest round-trip form, "+Inf" for positive infinity.
func fmtLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label is one name="value" pair attached to a sample.
type Label struct {
	Name, Value string
}

// L builds a label list from alternating name, value strings; it is the
// compact literal form used throughout the exporters.
func L(nv ...string) []Label {
	if len(nv)%2 != 0 {
		panic("obs: L called with an odd number of strings")
	}
	ls := make([]Label, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		ls = append(ls, Label{Name: nv[i], Value: nv[i+1]})
	}
	return ls
}

// Encoder writes Prometheus text format (version 0.0.4). It is a thin
// stateful wrapper over a buffered writer: Family emits the # HELP / # TYPE
// preamble for a metric family, the sample methods emit one series line
// each. The encoder does not reorder or deduplicate — callers emit families
// and their samples contiguously, as the format requires.
type Encoder struct {
	bw *bufio.Writer
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{bw: bufio.NewWriter(w)}
}

// Flush flushes the underlying buffered writer and reports any write error
// accumulated during encoding.
func (e *Encoder) Flush() error { return e.bw.Flush() }

// Family emits the # HELP and # TYPE preamble for one metric family.
// metricType is one of "counter", "gauge", "histogram".
func (e *Encoder) Family(name, metricType, help string) {
	fmt.Fprintf(e.bw, "# HELP %s %s\n", name, help)
	fmt.Fprintf(e.bw, "# TYPE %s %s\n", name, metricType)
}

// Gauge, GaugeUint, and Counter emit a whole single-series family: the
// preamble and its one unlabelled sample.
func (e *Encoder) Gauge(name, help string, v float64) {
	e.Family(name, "gauge", help)
	e.Float(name, nil, v)
}
func (e *Encoder) GaugeUint(name, help string, v uint64) {
	e.Family(name, "gauge", help)
	e.Uint(name, nil, v)
}
func (e *Encoder) Counter(name, help string, v uint64) {
	e.Family(name, "counter", help)
	e.Uint(name, nil, v)
}

// writeLabels renders {a="x",b="y"} (nothing for an empty list).
func (e *Encoder) writeLabels(ls []Label) {
	if len(ls) == 0 {
		return
	}
	e.bw.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			e.bw.WriteByte(',')
		}
		fmt.Fprintf(e.bw, "%s=%q", l.Name, l.Value)
	}
	e.bw.WriteByte('}')
}

// Uint emits one sample line with an integer value.
func (e *Encoder) Uint(name string, ls []Label, v uint64) {
	e.bw.WriteString(name)
	e.writeLabels(ls)
	fmt.Fprintf(e.bw, " %d\n", v)
}

// Float emits one sample line with a float value in exposition form.
func (e *Encoder) Float(name string, ls []Label, v float64) {
	e.bw.WriteString(name)
	e.writeLabels(ls)
	e.bw.WriteByte(' ')
	e.bw.WriteString(fmtLe(v))
	e.bw.WriteByte('\n')
}

// Histo emits the bucket/sum/count series of one histogram under the given
// base labels, in Prometheus cumulative-bucket form ending at le="+Inf".
// The family preamble (# TYPE name histogram) is the caller's via Family.
func (e *Encoder) Histo(name string, ls []Label, h *Histogram) {
	e.HistoScaled(name, ls, h, 1, nil)
}

// HistoScaled emits h like Histo with every bound and the sum multiplied by
// scale — the nanosecond-bucket latency histograms render as base-unit
// seconds (scale 1e-9) without re-binning — and, when exemplars are given,
// attaches each to its bucket line in OpenMetrics exemplar form:
//
//	name_bucket{le="0.001"} 17 # {op="get",key="42",shard="1"} 0.00093
//
// The exemplar value is the exemplar's service time in scaled units; its
// labels carry the op kind, key, shard, and the queue/total decomposition.
// Exemplars must be sorted by bucket index (PhaseSnapshot order).
func (e *Encoder) HistoScaled(name string, ls []Label, h *Histogram, scale float64, exemplars []Exemplar) {
	bounds, cum := h.Buckets()
	bl := make([]Label, len(ls), len(ls)+1)
	copy(bl, ls)
	next := 0
	writeExemplar := func(bucket int) {
		for next < len(exemplars) && exemplars[next].Bucket < bucket {
			next++
		}
		if next >= len(exemplars) || exemplars[next].Bucket != bucket {
			return
		}
		x := exemplars[next]
		e.bw.WriteString(" # ")
		e.writeLabels(L(
			"op", x.Op,
			"key", strconv.FormatUint(x.Key, 10),
			"shard", strconv.Itoa(x.Shard),
			"queue", fmtLe(float64(x.Queue.Nanoseconds())*scale),
			"total", fmtLe(float64(x.Total.Nanoseconds())*scale),
			"pages", strconv.FormatUint(x.Pages, 10),
		))
		e.bw.WriteByte(' ')
		e.bw.WriteString(fmtLe(float64(x.Service.Nanoseconds()) * scale))
	}
	emitBucket := func(le string, bucket int, v uint64) {
		e.bw.WriteString(name + "_bucket")
		e.writeLabels(append(bl, Label{Name: "le", Value: le}))
		fmt.Fprintf(e.bw, " %d", v)
		writeExemplar(bucket)
		e.bw.WriteByte('\n')
	}
	for i, b := range bounds {
		emitBucket(fmtLe(b*scale), i, cum[i])
	}
	emitBucket("+Inf", len(bounds), cum[len(cum)-1])
	e.Float(name+"_sum", ls, h.Sum()*scale)
	e.Uint(name+"_count", ls, h.Count())
}

// Source produces metrics when scraped. Implementations must be safe to
// call from any goroutine: the live scrape path invokes them from HTTP
// handler goroutines while the system keeps running.
type Source interface {
	CollectMetrics(e *Encoder)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(e *Encoder)

// CollectMetrics implements Source.
func (f SourceFunc) CollectMetrics(e *Encoder) { f(e) }

// Registry renders a set of live metric sources to Prometheus text format
// on demand. It is the live half of the metrics plane: where
// Observer.WriteMetrics exports one finished run to a file, a Registry is
// scraped repeatedly while the system serves. Registration order is
// rendering order.
type Registry struct {
	mu      sync.RWMutex
	sources []Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a source; it renders after all previously registered
// sources on every scrape.
func (r *Registry) Register(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, s)
}

// Render writes every registered source's metrics to w.
func (r *Registry) Render(w io.Writer) error {
	r.mu.RLock()
	sources := r.sources
	r.mu.RUnlock()
	e := NewEncoder(w)
	for _, s := range sources {
		s.CollectMetrics(e)
	}
	return e.Flush()
}

// ServeHTTP implements http.Handler: a GET /metrics scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}
