package column

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// am is the common surface of both column types under test.
type am interface {
	Name() string
	Get(core.Key) (core.Value, bool)
	Insert(core.Key, core.Value) error
	Update(core.Key, core.Value) bool
	Delete(core.Key) bool
	RangeScan(core.Key, core.Key, func(core.Key, core.Value) bool) int
	Len() int
	BulkLoad([]core.Record) error
}

func both() []am {
	return []am{NewSorted(nil), NewUnsorted(nil)}
}

func TestRandomizedAgainstMap(t *testing.T) {
	for _, c := range both() {
		rng := rand.New(rand.NewSource(2))
		ref := map[uint64]uint64{}
		for i := 0; i < 8000; i++ {
			k := uint64(rng.Intn(2000))
			switch rng.Intn(4) {
			case 0:
				err := c.Insert(k, k*3)
				if _, ok := ref[k]; ok {
					if err != core.ErrKeyExists {
						t.Fatalf("%s: dup insert err=%v", c.Name(), err)
					}
				} else if err != nil {
					t.Fatalf("%s: insert: %v", c.Name(), err)
				} else {
					ref[k] = k * 3
				}
			case 1:
				v, ok := c.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("%s op %d: Get(%d)", c.Name(), i, k)
				}
			case 2:
				nv := rng.Uint64()
				if c.Update(k, nv) {
					if _, ok := ref[k]; !ok {
						t.Fatalf("%s: phantom update", c.Name())
					}
					ref[k] = nv
				} else if _, ok := ref[k]; ok {
					t.Fatalf("%s: missed update", c.Name())
				}
			case 3:
				got := c.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("%s: Delete(%d) = %v", c.Name(), k, got)
				}
				delete(ref, k)
			}
			if c.Len() != len(ref) {
				t.Fatalf("%s: Len %d want %d", c.Name(), c.Len(), len(ref))
			}
		}
	}
}

func TestSortedRangeIsOrdered(t *testing.T) {
	s := NewSorted(nil)
	keys := []uint64{5, 1, 9, 3, 7}
	for _, k := range keys {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	n := s.RangeScan(2, 8, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{3, 5, 7}
	if n != len(want) {
		t.Fatalf("emitted %d", n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestUnsortedRangeFindsAll(t *testing.T) {
	u := NewUnsorted(nil)
	for k := uint64(0); k < 100; k++ {
		if err := u.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	u.RangeScan(10, 20, func(k core.Key, v core.Value) bool {
		seen[k] = true
		return true
	})
	for k := uint64(10); k <= 20; k++ {
		if !seen[k] {
			t.Fatalf("missing %d", k)
		}
	}
	if len(seen) != 11 {
		t.Fatalf("extra keys: %v", seen)
	}
}

func TestBulkLoadBoth(t *testing.T) {
	recs := make([]core.Record, 1000)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i * 2), Value: uint64(i)}
	}
	for _, c := range both() {
		if err := c.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 1000 {
			t.Fatalf("%s: Len %d", c.Name(), c.Len())
		}
		for i := 0; i < 1000; i += 37 {
			v, ok := c.Get(uint64(i * 2))
			if !ok || v != uint64(i) {
				t.Fatalf("%s: Get(%d)", c.Name(), i*2)
			}
		}
	}
}

// TestSortedStaysSortedProperty: after any batch of inserts the scan is
// ascending.
func TestSortedStaysSortedProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewSorted(nil)
		for _, k := range keys {
			_ = s.Insert(k, k) // duplicates rejected, fine
		}
		prev := uint64(0)
		first := true
		ok := true
		s.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
			if !first && k <= prev {
				ok = false
				return false
			}
			first, prev = false, k
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInsertCostAsymmetry: the sorted column pays linear shift writes, the
// unsorted column constant appends — the Table-1 contrast.
func TestInsertCostAsymmetry(t *testing.T) {
	s := NewSorted(nil)
	u := NewUnsorted(nil)
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(4000)
	for _, k := range keys {
		if err := s.Insert(uint64(k), 0); err != nil {
			t.Fatal(err)
		}
		if err := u.Insert(uint64(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	sw := s.Meter().PhysicalWritten()
	uw := u.Meter().PhysicalWritten()
	if sw < uw*10 {
		t.Fatalf("sorted writes %d should dwarf unsorted %d", sw, uw)
	}
}

// TestReadCostAsymmetry: the sorted column searches in logarithmic probes,
// the unsorted column scans.
func TestReadCostAsymmetry(t *testing.T) {
	s := NewSorted(nil)
	u := NewUnsorted(nil)
	recs := make([]core.Record, 1<<14)
	for i := range recs {
		recs[i] = core.Record{Key: uint64(i), Value: 0}
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := u.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	s0, u0 := s.Meter().Snapshot(), u.Meter().Snapshot()
	for k := uint64(0); k < 100; k++ {
		s.Get(k * 37)
		u.Get(k * 37)
	}
	sr := s.Meter().Diff(s0).PhysicalRead()
	ur := u.Meter().Diff(u0).PhysicalRead()
	if ur < sr*4 {
		t.Fatalf("unsorted reads %d should dwarf sorted %d", ur, sr)
	}
}

func TestMOIsExactlyOne(t *testing.T) {
	for _, c := range both() {
		for k := uint64(0); k < 100; k++ {
			if err := c.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, u := NewSorted(nil), NewUnsorted(nil)
	_ = s.Insert(1, 1)
	_ = u.Insert(1, 1)
	if s.Size().SpaceAmplification() != 1 || u.Size().SpaceAmplification() != 1 {
		t.Fatal("columns must have MO exactly 1.0")
	}
}

func TestScanEarlyStop(t *testing.T) {
	for _, c := range both() {
		for k := uint64(0); k < 50; k++ {
			if err := c.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		n := c.RangeScan(0, ^uint64(0), func(core.Key, core.Value) bool { return false })
		if n != 1 {
			t.Fatalf("%s: early stop emitted %d", c.Name(), n)
		}
	}
}

func TestSortedDeleteKeepsOrder(t *testing.T) {
	s := NewSorted(nil)
	var want []uint64
	for k := uint64(0); k < 200; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k += 3 {
		s.Delete(k)
	}
	for k := uint64(0); k < 200; k++ {
		if k%3 != 0 {
			want = append(want, k)
		}
	}
	var got []uint64
	s.RangeScan(0, ^uint64(0), func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("not sorted after deletes")
	}
	if len(got) != len(want) {
		t.Fatalf("lengths %d/%d", len(got), len(want))
	}
}
