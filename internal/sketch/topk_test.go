package sketch

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCountMinClear(t *testing.T) {
	c := New(0.01, 0.01, nil)
	for i := 0; i < 1000; i++ {
		c.Add(uint64(i%10), 1)
	}
	c.Clear()
	for k := uint64(0); k < 10; k++ {
		if c.Estimate(k) != 0 {
			t.Fatalf("key %d estimates %d after Clear", k, c.Estimate(k))
		}
	}
}

// zipfStream feeds a skewed stream where key k arrives ~total/(k+1) times —
// rank order is known exactly.
func zipfStream(t *TopK, keys int) {
	for k := 0; k < keys; k++ {
		for i := 0; i < 1<<(keys-k); i++ {
			t.Add(uint64(k), 1)
		}
	}
}

func TestTopKRanksHeavyHitters(t *testing.T) {
	tk := NewTopK(4)
	zipfStream(tk, 12)
	items := tk.Items()
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	for i, it := range items {
		if it.Key != uint64(i) {
			t.Fatalf("rank %d is key %d, want %d (items %v)", i, it.Key, i, items)
		}
		if want := uint64(1 << (12 - i)); it.Count != want {
			t.Fatalf("rank %d count %d, want %d", i, it.Count, want)
		}
	}
}

func TestTopKTieBreakByKey(t *testing.T) {
	tk := NewTopK(3)
	for _, k := range []uint64{9, 3, 7} {
		tk.Add(k, 5)
	}
	want := []KeyCount{{Key: 3, Count: 5}, {Key: 7, Count: 5}, {Key: 9, Count: 5}}
	if got := tk.Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTopKCompactionKeepsHeavies(t *testing.T) {
	tk := NewTopK(2) // retain 8, compact at 16
	tk.Add(42, 1000)
	tk.Add(43, 999)
	for i := 0; i < 10000; i++ {
		tk.Add(uint64(100+i), 1) // unique tail keys force many compactions
	}
	if tk.Len() > 16 {
		t.Fatalf("table grew to %d entries, bound is 16", tk.Len())
	}
	items := tk.Items()
	if len(items) != 2 || items[0].Key != 42 || items[1].Key != 43 {
		t.Fatalf("heavy hitters lost through compaction: %v", items)
	}
	if items[0].Count != 1000 || items[1].Count != 999 {
		t.Fatalf("heavy-hitter counts corrupted: %v", items)
	}
}

func TestTopKClear(t *testing.T) {
	tk := NewTopK(4)
	zipfStream(tk, 8)
	tk.Clear()
	if tk.Len() != 0 || len(tk.Items()) != 0 {
		t.Fatalf("Clear left %d entries", tk.Len())
	}
	tk.Add(5, 1)
	if got := tk.Items(); len(got) != 1 || got[0].Key != 5 {
		t.Fatalf("tracker unusable after Clear: %v", got)
	}
}

// TestTopKReadPathAllocs pins the zero-alloc read contract the serving
// layer's metrics scrape depends on: ranking into the reusable scratch
// buffer must not allocate once the buffer has warmed up.
func TestTopKReadPathAllocs(t *testing.T) {
	tk := NewTopK(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		tk.Add(uint64(rng.Intn(64)), 1)
	}
	tk.ItemsInto(nil) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		if len(tk.ItemsInto(nil)) == 0 {
			t.Fatal("empty ranking")
		}
	})
	if allocs != 0 {
		t.Fatalf("ItemsInto(nil) allocates %v per call, want 0", allocs)
	}
}

func BenchmarkTopKItemsInto(b *testing.B) {
	tk := NewTopK(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<14; i++ {
		tk.Add(uint64(rng.Intn(256)), 1)
	}
	tk.ItemsInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.ItemsInto(nil)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	c := New(0.01, 0.01, nil)
	for i := 0; i < 1<<14; i++ {
		c.Add(uint64(i%256), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Estimate(uint64(i % 256))
	}
}
