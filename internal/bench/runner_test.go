package bench

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunnerMapBounded checks that Map never runs more than the pool width
// concurrently and visits every index exactly once.
func TestRunnerMapBounded(t *testing.T) {
	const workers = 3
	r := NewRunner(workers)
	var cur, peak, total atomic.Int64
	var mu sync.Mutex
	seen := map[int]int{}
	errs := r.Map(50, func(i int) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		mu.Lock()
		seen[i]++
		mu.Unlock()
		total.Add(1)
		cur.Add(-1)
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("index %d errored: %v", i, e)
		}
	}
	if total.Load() != 50 || len(seen) != 50 {
		t.Fatalf("ran %d cells over %d indices, want 50/50", total.Load(), len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("concurrency peaked at %d with %d workers", p, workers)
	}
	if s := r.Stats(); s.Cells != 50 || s.Failed != 0 {
		t.Fatalf("stats = %+v, want 50 cells, 0 failed", s)
	}
}

// TestRunnerMapSequentialInline checks the nil-runner and one-worker paths run
// in enumeration order on the caller's goroutine.
func TestRunnerMapSequentialInline(t *testing.T) {
	for _, r := range []*Runner{nil, NewRunner(1)} {
		var order []int
		r.Map(5, func(i int) { order = append(order, i) }) // no locking: must be inline
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: order %v, want ascending", r.Workers(), order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("ran %d of 5", len(order))
		}
	}
	if w := (*Runner)(nil).Workers(); w != 1 {
		t.Fatalf("nil runner Workers() = %d, want 1", w)
	}
}

// TestRunnerMapRecovers checks that a panicking cell is captured as a
// CellError while the other cells still run.
func TestRunnerMapRecovers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunner(workers)
		var ran atomic.Int64
		errs := r.Map(6, func(i int) {
			if i == 2 {
				panic(errors.New("boom"))
			}
			ran.Add(1)
		})
		if ran.Load() != 5 {
			t.Fatalf("workers=%d: %d clean cells ran, want 5", workers, ran.Load())
		}
		for i, e := range errs {
			if (e != nil) != (i == 2) {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, e)
			}
		}
		if errs[2].Value.(error).Error() != "boom" || len(errs[2].Stack) == 0 {
			t.Fatalf("workers=%d: bad CellError %+v", workers, errs[2])
		}
		if s := r.Stats(); s.Cells != 6 || s.Failed != 1 {
			t.Fatalf("workers=%d: stats = %+v", workers, s)
		}
	}
}

// TestRunCellsSuiteError checks that a failing cell surfaces as a SuiteError
// naming the experiment and cell, only after every cell has run.
func TestRunCellsSuiteError(t *testing.T) {
	cfg := Config{Runner: NewRunner(2)}
	var after atomic.Bool
	defer func() {
		v := recover()
		se, ok := v.(*SuiteError)
		if !ok {
			t.Fatalf("recovered %T %v, want *SuiteError", v, v)
		}
		if se.Exp != "exp" || len(se.Cells) != 1 || se.Cells[0].Label != "bad" {
			t.Fatalf("SuiteError = %+v", se)
		}
		if !strings.Contains(se.Error(), "exp/bad") {
			t.Fatalf("error text %q lacks cell name", se.Error())
		}
		if !after.Load() {
			t.Fatal("later cell did not run after the failure")
		}
	}()
	cfg.runCells("exp", []Cell{
		{Label: "ok", Run: func(Config) {}},
		{Label: "bad", Run: func(Config) { panic("kaput") }},
		{Label: "also-ok", Run: func(Config) { after.Store(true) }},
	})
	t.Fatal("runCells did not panic")
}

// TestMakeRecordsCached checks the memoized dataset cache: same (seed, n)
// yields equal content, distinct backing arrays (callers may mutate), and no
// regeneration; different keys yield different data.
func TestMakeRecordsCached(t *testing.T) {
	a := makeRecords(7, 512)
	b := makeRecords(7, 512)
	if len(a) != 512 || len(b) != 512 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	if &a[0] == &b[0] {
		t.Fatal("makeRecords returned the shared canonical slice, not a copy")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached dataset differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	a[0].Key = ^a[0].Key // caller mutation must not poison the cache
	c := makeRecords(7, 512)
	if c[0] != b[0] {
		t.Fatal("caller mutation leaked into the cache")
	}
	d := makeRecords(8, 512)
	same := true
	for i := range d {
		if d[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

// TestMakeRecordsCachedConcurrent hits one cache key from many goroutines;
// under -race this proves the sync.Once fill is sound.
func TestMakeRecordsCachedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := makeRecords(11, 256)
			if len(r) != 256 {
				t.Errorf("got %d records", len(r))
			}
		}()
	}
	wg.Wait()
}
