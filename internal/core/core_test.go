package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rum"
	"repro/internal/workload"
)

func TestRecordEncoding(t *testing.T) {
	f := func(k, v uint64) bool {
		var buf [RecordSize]byte
		EncodeRecord(buf[:], Record{Key: k, Value: v})
		r := DecodeRecord(buf[:])
		return r.Key == k && r.Value == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fakeAM is a map-backed access method for wrapper tests.
type fakeAM struct {
	m     map[Key]Value
	meter rum.Meter
	flush int
}

func newFake() *fakeAM { return &fakeAM{m: map[Key]Value{}} }

func (f *fakeAM) Name() string { return "fake" }
func (f *fakeAM) Get(k Key) (Value, bool) {
	f.meter.CountRead(rum.Base, 16)
	v, ok := f.m[k]
	return v, ok
}
func (f *fakeAM) Insert(k Key, v Value) error {
	if _, ok := f.m[k]; ok {
		return ErrKeyExists
	}
	f.meter.CountWrite(rum.Base, 16)
	f.m[k] = v
	return nil
}
func (f *fakeAM) Update(k Key, v Value) bool {
	if _, ok := f.m[k]; !ok {
		return false
	}
	f.meter.CountWrite(rum.Base, 16)
	f.m[k] = v
	return true
}
func (f *fakeAM) Delete(k Key) bool {
	if _, ok := f.m[k]; !ok {
		return false
	}
	f.meter.CountWrite(rum.Base, 16)
	delete(f.m, k)
	return true
}
func (f *fakeAM) RangeScan(lo, hi Key, emit func(Key, Value) bool) int {
	n := 0
	for k, v := range f.m {
		if k >= lo && k <= hi {
			n++
			if !emit(k, v) {
				break
			}
		}
	}
	return n
}
func (f *fakeAM) Len() int           { return len(f.m) }
func (f *fakeAM) Meter() *rum.Meter  { return &f.meter }
func (f *fakeAM) Size() rum.SizeInfo { return rum.SizeInfo{BaseBytes: uint64(len(f.m)) * 16} }
func (f *fakeAM) Flush()             { f.flush++ }

func TestInstrumentLogicalAccounting(t *testing.T) {
	w := Instrument(newFake())
	w.Get(1)           // miss: still one logical read
	_ = w.Insert(1, 2) // one logical write
	w.Update(1, 3)     // one logical write
	w.Update(99, 3)    // miss: still accounted
	w.Delete(1)        // one logical write
	m := w.Meter().Snapshot()
	if m.LogicalRead != RecordSize {
		t.Fatalf("logical reads %d", m.LogicalRead)
	}
	if m.LogicalWritten != 4*RecordSize {
		t.Fatalf("logical writes %d", m.LogicalWritten)
	}
	if m.ReadOps != 1 || m.WriteOps != 4 {
		t.Fatalf("ops %d/%d", m.ReadOps, m.WriteOps)
	}
}

// batchFake is fakeAM with a GetBatch that is its loop of Gets, counting the
// calls that reach it.
type batchFake struct {
	*fakeAM
	calls int
}

func (f *batchFake) GetBatch(keys []Key, vals []Value, oks []bool) {
	f.calls++
	for i, k := range keys {
		vals[i], oks[i] = f.Get(k)
	}
}

// spanLog records an observer's span boundaries.
type spanLog []string

func (l *spanLog) BeginOp(op string) { *l = append(*l, "begin "+op) }
func (l *spanLog) EndOp(op string)   { *l = append(*l, "end "+op) }

// TestInstrumentGetBatchIsGets: Instrumented.GetBatch leaves the values and
// the meter a loop of Gets leaves — forwarded in one call to a BatchGetter,
// run as that loop for a structure without one, and run as that loop, one
// span per key, while an observer is attached.
func TestInstrumentGetBatchIsGets(t *testing.T) {
	fill := func(f *fakeAM) *fakeAM {
		for k := Key(0); k < 20; k += 2 {
			f.m[k] = k * 10
		}
		return f
	}
	keys := []Key{4, 5, 0, 18, 19, 4}
	loop := func() rum.Meter {
		w := Instrument(fill(newFake()))
		for _, k := range keys {
			w.Get(k)
		}
		return *w.Meter()
	}()
	check := func(name string, w *Instrumented) {
		t.Helper()
		vals, oks := make([]Value, len(keys)), make([]bool, len(keys))
		for i := range vals {
			vals[i], oks[i] = 7, true // a reused buffer's leftovers
		}
		w.GetBatch(keys, vals, oks)
		for i, k := range keys {
			want, wantOK := fill(newFake()).m[k]
			if vals[i] != want || oks[i] != wantOK {
				t.Fatalf("%s: key %d: GetBatch %d,%v; want %d,%v", name, k, vals[i], oks[i], want, wantOK)
			}
		}
		if got := *w.Meter(); got != loop {
			t.Fatalf("%s: GetBatch charged %+v, the Gets %+v", name, got, loop)
		}
	}

	bf := &batchFake{fakeAM: fill(newFake())}
	check("batch getter", Instrument(bf))
	if bf.calls != 1 {
		t.Fatalf("a BatchGetter got %d GetBatch calls for one batch, want 1", bf.calls)
	}
	check("plain structure", Instrument(fill(newFake())))

	bf = &batchFake{fakeAM: fill(newFake())}
	w := Instrument(bf)
	var spans spanLog
	w.SetObserver(&spans)
	check("observed", w)
	if bf.calls != 0 {
		t.Fatalf("an observed wrapper forwarded %d GetBatch calls, want 0: the observer wants one span per key", bf.calls)
	}
	if len(spans) != 2*len(keys) {
		t.Fatalf("observer saw %d span boundaries for %d keys: %v", len(spans), len(keys), spans)
	}
	for i := 0; i < len(spans); i += 2 {
		if spans[i] != "begin "+OpNameGet || spans[i+1] != "end "+OpNameGet {
			t.Fatalf("spans %d, %d are %q, %q; want one get span per key", i, i+1, spans[i], spans[i+1])
		}
	}
}

// prefetchFake is fakeAM with a Prefetch that records the keys it is given.
type prefetchFake struct {
	*fakeAM
	hinted [][]Key
}

func (f *prefetchFake) Prefetch(keys []Key) {
	f.hinted = append(f.hinted, append([]Key(nil), keys...))
}

// TestInstrumentPrefetch: Instrumented.Prefetch hands a Prefetcher the keys
// and charges nothing; it drops the hint for a structure without Prefetch
// and while an observer is attached, like GetBatch.
func TestInstrumentPrefetch(t *testing.T) {
	keys := []Key{3, 1, 3}
	pf := &prefetchFake{fakeAM: newFake()}
	w := Instrument(pf)
	w.Prefetch(keys)
	if len(pf.hinted) != 1 || !slices.Equal(pf.hinted[0], keys) {
		t.Fatalf("a Prefetcher was hinted %v, want one hint of %v", pf.hinted, keys)
	}
	if got := *w.Meter(); got != (rum.Meter{}) {
		t.Fatalf("a prefetch charged %+v through the wrapper", got)
	}
	Instrument(newFake()).Prefetch(keys) // no Prefetcher: nothing to do

	var spans spanLog
	w.SetObserver(&spans)
	w.Prefetch(keys)
	if len(pf.hinted) != 1 || len(spans) != 0 {
		t.Fatalf("an observed wrapper forwarded %d hints (want 1, the unobserved one) and opened %v", len(pf.hinted), spans)
	}
}

func TestInstrumentRangeAccounting(t *testing.T) {
	w := Instrument(newFake())
	for k := Key(0); k < 10; k++ {
		if err := w.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Meter().Snapshot()
	n := w.RangeScan(0, 4, func(Key, Value) bool { return true })
	if n != 5 {
		t.Fatalf("emitted %d", n)
	}
	d := w.Meter().Diff(before)
	if d.LogicalRead != 5*RecordSize {
		t.Fatalf("range logical %d", d.LogicalRead)
	}
}

func TestInstrumentIdempotent(t *testing.T) {
	f := newFake()
	w := Instrument(f)
	if Instrument(w) != w {
		t.Fatal("double wrap")
	}
	if w.Unwrap() != AccessMethod(f) {
		t.Fatal("unwrap")
	}
	w.Flush()
	if f.flush != 1 {
		t.Fatal("flush not forwarded")
	}
}

func TestInstrumentBulkLoadFallsBackToInserts(t *testing.T) {
	w := Instrument(newFake()) // fakeAM is not a BulkLoader
	recs := []Record{{Key: 1, Value: 2}, {Key: 3, Value: 4}}
	if err := w.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatal("len")
	}
	if v, ok := w.Get(3); !ok || v != 4 {
		t.Fatal("get")
	}
}

func TestRunProfile(t *testing.T) {
	gen := workload.New(workload.Config{Seed: 1, Mix: workload.Balanced, InitialLen: 500})
	prof, err := RunProfile(newFake(), gen, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Name != "fake" {
		t.Fatal("name")
	}
	st := prof.Ops
	total := st.Gets + st.Ranges + st.Inserts + st.Updates + st.Deletes
	if total != 2000 {
		t.Fatalf("ops %d", total)
	}
	if st.InsertFailures != 0 {
		t.Fatalf("insert failures %d", st.InsertFailures)
	}
	if st.Hits == 0 || st.UpdateHits == 0 {
		t.Fatal("no hits: generator/live-set mismatch")
	}
	if prof.Point.R <= 0 || prof.Point.U <= 0 {
		t.Fatalf("degenerate point %v", prof.Point)
	}
	if prof.String() == "" {
		t.Fatal("string")
	}
}

// wizardSubstrate is the catalog's default geometry (methods.Options{}; core
// cannot import methods to ask for it) with a pool as large as the 2^20
// records the wizard tests size for: the paged candidates get the memory the
// in-memory ones take for themselves.
var wizardSubstrate = model.Params{PageSize: 4096, RecordSize: RecordSize, LineSize: rum.LineSize, PoolPages: 1 << 20 * RecordSize / 4096}

func TestWizardRankings(t *testing.T) {
	// Point-read heavy: a point index must rank first.
	recs := Recommend(Requirements{
		Mix:      workload.Mix{Get: 0.9, Update: 0.1},
		DataSize: 1 << 20,
	}, wizardSubstrate)
	if len(recs) < 5 {
		t.Fatal("too few recommendations")
	}
	if top := recs[0].Config.Method; top != "hash" && top != "btree" {
		t.Fatalf("read workload top pick %q", top)
	}

	// Write-heavy on flash: the LSM must rank first.
	recs = Recommend(Requirements{
		Mix:       workload.Mix{Insert: 0.7, Update: 0.2, Get: 0.1},
		DataSize:  1 << 20,
		FlashLike: true,
	}, wizardSubstrate)
	if top := recs[0].Config.Method; top != "lsm-level" && top != "lsm-tier" {
		t.Fatalf("flash write workload top pick %q", top)
	}

	// Scan-heavy and memory-tight: sparse structures over fat trees.
	recs = Recommend(Requirements{
		Mix:         workload.Mix{Scan: 0.8, Get: 0.1, Insert: 0.1},
		DataSize:    1 << 20,
		MemoryTight: true,
	}, wizardSubstrate)
	rank := map[string]int{}
	for i := len(recs) - 1; i >= 0; i-- { // best variant of a method wins
		rank[recs[i].Config.Method] = i
	}
	if rank["zonemap"] > rank["hash"] {
		t.Fatalf("memory-tight scan: zonemap ranked %d below hash %d", rank["zonemap"], rank["hash"])
	}
	if Explain(recs) == "" {
		t.Fatal("explain")
	}
}

func TestWizardPrioritiesNormalize(t *testing.T) {
	p := Priorities{}.normalized()
	if p.Read+p.Write+p.Space != 1 {
		t.Fatalf("normalized %+v", p)
	}
	q := Priorities{Read: 2, Write: 1, Space: 1}.normalized()
	if q.Read != 0.5 {
		t.Fatalf("weighted %+v", q)
	}
}
