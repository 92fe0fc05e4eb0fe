package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/storage"
	"repro/internal/workload"
)

// runTraced profiles a pool-backed B+-tree with an attached observer: the
// observer receives both storage events (via Options.Hook) and operation
// spans (via Target), exactly as cmd/rumbench wires it.
func runTraced(t testing.TB, cfg obs.Config, n, ops int) (*obs.Observer, *core.Instrumented) {
	t.Helper()
	o := obs.New(cfg)
	opt := methods.Options{PageSize: 512, PoolPages: 4, Hook: o}
	am := methods.NewBTree(opt, btree.Config{})
	o.Target(am, "btree")
	gen := workload.New(workload.Config{
		Seed:       7,
		Mix:        workload.Balanced,
		InitialLen: n,
		RangeLen:   1 << 30,
	})
	if _, err := core.RunProfile(am, gen, ops); err != nil {
		t.Fatal(err)
	}
	return o, am
}

// TestSpanConservation is the acceptance invariant of the tracing layer:
// summing the per-span meter deltas reconstructs the structure's final meter
// exactly, no physical traffic escapes span attribution, and span byte
// counts agree with span page counts at page granularity.
func TestSpanConservation(t *testing.T) {
	o, am := runTraced(t, obs.Config{SampleEvery: 64}, 300, 600)

	final := am.Meter().Snapshot()
	var traced rum.Meter
	for _, sp := range o.Spans() {
		traced.Add(sp.Meter)
	}
	if traced != final {
		t.Fatalf("span deltas do not sum to meter totals:\n traced %+v\n final  %+v", traced, final)
	}

	// Re-sum from the exported JSONL, proving the trace file itself is
	// conservative, not just the in-memory accumulator.
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var sum rum.Meter
	var pages obs.PageCounts
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var s obs.SpanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		sum.BaseRead += s.BaseRead
		sum.AuxRead += s.AuxRead
		sum.BaseWritten += s.BaseWritten
		sum.AuxWritten += s.AuxWritten
		sum.LogicalRead += s.LogicalRead
		sum.LogicalWritten += s.LogicalWritten
		pages.BaseReads += s.PageReadsBase
		pages.AuxReads += s.PageReadsAux
		pages.BaseWrites += s.PageWritesBase
		pages.AuxWrites += s.PageWritesAux
		pages.Hits += s.PoolHits
		pages.Misses += s.PoolMisses
		pages.Cost += s.CostUnits

		// Pool-backed structures move whole pages: bytes must equal pages
		// at page granularity, span by span.
		if s.BaseRead != s.PageReadsBase*512 || s.AuxRead != s.PageReadsAux*512 {
			t.Fatalf("span %d: read bytes %d/%d disagree with %d/%d pages of 512",
				s.Seq, s.BaseRead, s.AuxRead, s.PageReadsBase, s.PageReadsAux)
		}
		if s.BaseWritten != s.PageWritesBase*512 || s.AuxWritten != s.PageWritesAux*512 {
			t.Fatalf("span %d: written bytes disagree with page counts", s.Seq)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || lines != len(o.Spans()) {
		t.Fatalf("trace lines %d, spans %d", lines, len(o.Spans()))
	}
	if sum.BaseRead != final.BaseRead || sum.AuxRead != final.AuxRead ||
		sum.BaseWritten != final.BaseWritten || sum.AuxWritten != final.AuxWritten ||
		sum.LogicalRead != final.LogicalRead || sum.LogicalWritten != final.LogicalWritten {
		t.Fatalf("JSONL sums diverge from meter totals:\n sum   %+v\n final %+v", sum, final)
	}

	// Every physical event must have been attributed to some span.
	tot := o.Totals()
	if pages.Reads() != tot.Reads() || pages.Writes() != tot.Writes() || pages.Cost != tot.Cost {
		t.Fatalf("span page sums %+v diverge from totals %+v", pages, tot)
	}
}

// TestObserverNesting: a BulkLoad that falls back to per-record Inserts must
// produce one outer span absorbing the nested work, so trace totals stay
// conservative without double counting.
func TestObserverNesting(t *testing.T) {
	o := obs.New(obs.Config{SampleEvery: 1 << 20})
	am := core.Instrument(newMemAM())
	o.Target(am, "mem")
	recs := make([]core.Record, 10)
	for i := range recs {
		recs[i] = core.Record{Key: core.Key(i), Value: core.Value(i)}
	}
	if err := am.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	spans := o.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans: %d, want 1 outer bulkload span", len(spans))
	}
	sp := spans[0]
	if sp.Op != core.OpNameBulkLoad {
		t.Fatalf("op: %q", sp.Op)
	}
	// All ten nested inserts' bytes land in the one span.
	if sp.Meter.LogicalWritten != 10*core.RecordSize || sp.Meter.BaseWritten != 10*core.RecordSize {
		t.Fatalf("outer span meter: %+v", sp.Meter)
	}
	if sp.Meter != am.Meter().Snapshot() {
		t.Fatal("nested bulkload broke conservation")
	}
}

// TestUntracedAttribution: meter or device traffic outside any span lands in
// the untraced bucket rather than vanishing or corrupting a span.
func TestUntracedAttribution(t *testing.T) {
	o := obs.New(obs.Config{})
	opt := methods.Options{PageSize: 512, PoolPages: 4, Hook: o}
	pool := methods.NewPool(opt, nil)
	f, err := pool.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(f)
	pool.FlushAll()
	if len(o.Spans()) != 0 {
		t.Fatal("spanless traffic created spans")
	}
	// With no span, every observed event is untraced.
	if got := o.Totals().Writes(); got != 1 {
		t.Fatalf("untraced writes: %d", got)
	}
}

// TestMaxSpansCap: spans past the cap are dropped but keep feeding totals.
func TestMaxSpansCap(t *testing.T) {
	o := obs.New(obs.Config{MaxSpans: 5, SampleEvery: 1 << 20})
	am := core.Instrument(newMemAM())
	o.Target(am, "mem")
	for i := 0; i < 12; i++ {
		if err := am.Insert(core.Key(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(o.Spans()) != 5 {
		t.Fatalf("retained spans: %d", len(o.Spans()))
	}
	if o.Dropped() != 7 {
		t.Fatalf("dropped: %d", o.Dropped())
	}
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`rum_traced_bytes_total{kind="physical",dir="write",class="base"} %d`, am.Meter().BaseWritten),
		fmt.Sprintf(`rum_traced_bytes_total{kind="logical",dir="write"} %d`, am.Meter().LogicalWritten),
		`rum_op_pages_count{method="mem",op="insert"} 12`,
		`rum_ops_total{method="mem",op="insert"} 12`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dropped spans must still feed the traced totals, histograms and op counts: no %q in\n%s", want, buf.String())
		}
	}
}

// TestTimeSeriesSampling checks cadence and windowed deltas.
func TestTimeSeriesSampling(t *testing.T) {
	o := obs.New(obs.Config{SampleEvery: 4})
	am := core.Instrument(newMemAM())
	o.Target(am, "mem")
	for i := 0; i < 16; i++ {
		am.Insert(core.Key(i), 1)
	}
	samples := o.Samples()
	// 1 baseline at Target + one per 4 ops.
	if len(samples) != 5 {
		t.Fatalf("samples: %d", len(samples))
	}
	if samples[0].Seq != 0 || samples[0].Cum != (rum.Meter{}) {
		t.Fatalf("baseline sample: %+v", samples[0])
	}
	var winSum rum.Meter
	for _, s := range samples {
		winSum.Add(s.Win)
	}
	if winSum != am.Meter().Snapshot() {
		t.Fatalf("window deltas do not telescope to the cumulative meter: %+v", winSum)
	}
	last := samples[len(samples)-1]
	if last.Seq != 16 || last.Cum.WriteOps != 16 {
		t.Fatalf("last sample: %+v", last)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := obs.NewHistogram(obs.PowerOfTwoBounds(8)) // 1..128
	for v := 1; v <= 100; v++ {
		h.Record(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("count: %d", h.Count())
	}
	// The true p50 is 50; the bucket answer is its power-of-two ceiling.
	if q := h.Quantile(0.50); q != 64 {
		t.Fatalf("p50: %g", q)
	}
	if q := h.Quantile(0.99); q != 128 {
		t.Fatalf("p99: %g", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0: %g", q)
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum: %g", h.Sum())
	}
	// Overflow beyond the last bound reports +Inf.
	h.Record(1e9)
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("overflow quantile: %g", q)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 8 || len(cum) != 9 {
		t.Fatalf("bucket shape: %d bounds, %d cumulative", len(bounds), len(cum))
	}
	if cum[len(cum)-1] != h.Count() {
		t.Fatal("+Inf bucket must equal total count")
	}
	// Cumulative counts must be monotone.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("non-monotone cumulative buckets")
		}
	}
	// An empty histogram is quiet.
	e := obs.NewHistogram(obs.PowerOfTwoBounds(4))
	if e.Quantile(0.5) != 0 || e.Sum() != 0 || e.Count() != 0 {
		t.Fatal("empty histogram")
	}
}

func TestSparkline(t *testing.T) {
	s := obs.Sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("width: %d (%q)", utf8.RuneCountInString(s), s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("monotone ramp should span the full block range: %q", s)
	}
	// Constant series stays at the floor, infinities clamp to the top.
	flat := obs.Sparkline([]float64{3, 3, 3}, 3)
	if flat != "▁▁▁" {
		t.Fatalf("flat: %q", flat)
	}
	inf := []rune(obs.Sparkline([]float64{1, math.Inf(1)}, 2))
	if inf[1] != '█' {
		t.Fatalf("inf: %q", string(inf))
	}
	if got := obs.Sparkline(nil, 4); got != "    " {
		t.Fatalf("empty: %q", got)
	}
	// Resampling: 100 points into 10 columns, still full width.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i % 17)
	}
	if got := obs.Sparkline(long, 10); utf8.RuneCountInString(got) != 10 {
		t.Fatalf("resample width: %q", got)
	}
}

func TestRenderTrajectory(t *testing.T) {
	o, _ := runTraced(t, obs.Config{SampleEvery: 50}, 200, 400)
	out := obs.RenderTrajectory(o.Samples(), 40)
	for _, want := range []string{"— btree", "RO(win)", "UO(win)", "MO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, out)
		}
	}
	if obs.RenderTrajectory(nil, 40) != "(no samples)\n" {
		t.Fatal("empty trajectory")
	}
}

// memAM is a minimal in-memory AccessMethod for precise span assertions:
// every operation meters exactly one record of physical base traffic.
type memAM struct {
	m    rum.Meter
	data map[core.Key]core.Value
}

func newMemAM() *memAM { return &memAM{data: map[core.Key]core.Value{}} }

func (s *memAM) Name() string { return "mem" }

func (s *memAM) Get(k core.Key) (core.Value, bool) {
	s.m.CountRead(rum.Base, core.RecordSize)
	v, ok := s.data[k]
	return v, ok
}

func (s *memAM) Insert(k core.Key, v core.Value) error {
	s.m.CountWrite(rum.Base, core.RecordSize)
	if _, ok := s.data[k]; ok {
		return core.ErrKeyExists
	}
	s.data[k] = v
	return nil
}

func (s *memAM) Update(k core.Key, v core.Value) bool {
	s.m.CountWrite(rum.Base, core.RecordSize)
	if _, ok := s.data[k]; !ok {
		return false
	}
	s.data[k] = v
	return true
}

func (s *memAM) Delete(k core.Key) bool {
	s.m.CountWrite(rum.Base, core.RecordSize)
	if _, ok := s.data[k]; !ok {
		return false
	}
	delete(s.data, k)
	return true
}

func (s *memAM) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	n := 0
	for k, v := range s.data {
		if k >= lo && k <= hi {
			s.m.CountRead(rum.Base, core.RecordSize)
			n++
			if !emit(k, v) {
				break
			}
		}
	}
	return n
}

func (s *memAM) Len() int { return len(s.data) }

func (s *memAM) Meter() *rum.Meter { return &s.m }

func (s *memAM) Size() rum.SizeInfo {
	return rum.SizeInfo{BaseBytes: uint64(len(s.data) * core.RecordSize)}
}

// TestFaultEventAttribution: fault-path storage events (injected faults,
// torn writes, crashes, retries) land in the totals and in the open span's
// page counts — a failed transfer counts no read/write traffic, so these
// counters are its only trace.
func TestFaultEventAttribution(t *testing.T) {
	o := obs.New(obs.Config{SampleEvery: 1 << 20})
	var hook storage.Hook = o // Observer implements storage.Hook
	hook.StorageEvent(storage.EvFault, 1, rum.Base, 0)
	hook.StorageEvent(storage.EvTorn, 2, rum.Base, 20)
	hook.StorageEvent(storage.EvCrash, 3, rum.Aux, 0)
	hook.StorageEvent(storage.EvRetry, 1, rum.Base, 0)
	tot := o.Totals()
	if tot.Faults != 2 || tot.TornWrites != 1 || tot.Crashes != 1 || tot.Retries != 1 {
		t.Fatalf("totals: %+v", tot)
	}
	// No span open: the events are untraced, and they are not page traffic.
	if len(o.Spans()) != 0 || tot.Touched() != 0 {
		t.Fatalf("spans %d, totals %+v", len(o.Spans()), tot)
	}
	// The metrics exposition carries the fault block.
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rum_fault_events_total{event="fault"} 2`,
		`rum_fault_events_total{event="torn"} 1`,
		`rum_fault_events_total{event="crash"} 1`,
		`rum_fault_events_total{event="retry"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
