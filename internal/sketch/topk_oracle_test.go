package sketch

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// topkOracle is the tracker TopK replaced, kept as the reference the flat
// table is held to: a Go map that compaction dumps, fully sorts by
// (count desc, key asc) and prunes to the first retain entries.
type topkOracle struct {
	k, retain, slack int
	counts           map[uint64]uint64
}

func newTopKOracle(k int) *topkOracle {
	if k < 1 {
		k = 1
	}
	return &topkOracle{k: k, retain: 4 * k, slack: 8 * k, counts: map[uint64]uint64{}}
}

func (t *topkOracle) Add(key, delta uint64) {
	t.counts[key] += delta
	if len(t.counts) > t.slack {
		for _, it := range t.rank()[t.retain:] {
			delete(t.counts, it.Key)
		}
	}
}

func (t *topkOracle) Clear() { clear(t.counts) }

func (t *topkOracle) rank() []KeyCount {
	var all []KeyCount
	for k, c := range t.counts {
		all = append(all, KeyCount{Key: k, Count: c})
	}
	slices.SortFunc(all, func(a, b KeyCount) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		if a.Key < b.Key {
			return -1
		}
		return 1 // keys are unique
	})
	return all
}

func (t *topkOracle) Items() []KeyCount {
	all := t.rank()
	if len(all) > t.k {
		all = all[:t.k]
	}
	return all
}

// table returns the tracker's whole counter table ranked like the oracle's,
// so two tables compare with DeepEqual whatever order they are stored in.
func (t *TopK) table() []KeyCount { return t.rank(nil) }

// requireSameTable fails unless tk retains exactly the oracle's counters and
// ranks the same top k.
func requireSameTable(t *testing.T, tk *TopK, or *topkOracle, when string) {
	t.Helper()
	if got, want := tk.table(), or.rank(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: retained table diverged\n  got  %v\n  want %v", when, got, want)
	}
	if tk.Len() != len(or.counts) {
		t.Fatalf("%s: Len %d, oracle holds %d", when, tk.Len(), len(or.counts))
	}
	// Items on an empty tracker is an empty non-nil slice on one side and nil
	// on the other; only the contents are the contract.
	if got, want := tk.Items(), or.Items(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Items diverged\n  got  %v\n  want %v", when, got, want)
	}
}

// topkStream draws the next key of a test stream: a zipf-like head over a
// long tail (so compactions cut through a mass of count ties) or a uniform
// universe a little wider than the table.
func topkStream(rng *rand.Rand, z *rand.Zipf, universe int) uint64 {
	if z != nil {
		return z.Uint64()
	}
	return uint64(rng.Intn(universe))
}

// TestTopKMatchesOracle holds the flat table to the map+sort tracker it
// replaced: same retained counters after every single Add (so after every
// compaction), across rank depths, skewed and uniform streams, and deltas
// that make count ties both common (1) and rare (1..3).
func TestTopKMatchesOracle(t *testing.T) {
	for k := 1; k <= 9; k++ {
		for _, dist := range []string{"zipf", "uniform"} {
			for maxDelta := 1; maxDelta <= 3; maxDelta++ {
				rng := rand.New(rand.NewSource(int64(1000*k + maxDelta)))
				var z *rand.Zipf
				if dist == "zipf" {
					z = rand.NewZipf(rng, 1.1, 1, 1<<16)
				}
				tk, or := NewTopK(k), newTopKOracle(k)
				for i := 0; i < 3000; i++ {
					key := topkStream(rng, z, 24*k)
					delta := uint64(1 + rng.Intn(maxDelta))
					before := tk.Len()
					tk.Add(key, delta)
					or.Add(key, delta)
					if tk.Len() < before || i%97 == 0 {
						requireSameTable(t, tk, or, "after a compaction")
					}
				}
				requireSameTable(t, tk, or, "at the end of the stream")
				if dst := tk.ItemsInto(make([]KeyCount, 1, 16)); !reflect.DeepEqual(dst[1:], or.Items()) {
					t.Fatalf("ItemsInto(dst) appended %v, want %v", dst[1:], or.Items())
				}
				tk.Clear()
				or.Clear()
				requireSameTable(t, tk, or, "after Clear")
				for i := 0; i < 500; i++ {
					key := topkStream(rng, z, 24*k)
					tk.Add(key, 1)
					or.Add(key, 1)
				}
				requireSameTable(t, tk, or, "refilled after Clear")
			}
		}
	}
}

// TestSelectNth checks the selection kernel against a sort, duplicates and
// already-ordered inputs included.
func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		v := make([]uint64, 1+rng.Intn(70))
		for i := range v {
			v[i] = uint64(rng.Intn(1 + trial%9)) // few distinct values: many ties
		}
		switch trial % 4 {
		case 1:
			slices.Sort(v)
		case 2:
			slices.Sort(v)
			slices.Reverse(v)
		}
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		n := rng.Intn(len(v))
		if got := selectNth(v, n); got != sorted[n] {
			t.Fatalf("selectNth(n=%d) = %d, sorted copy holds %d", n, got, sorted[n])
		}
	}
}

// FuzzTopKMatchesOracle replays an arbitrary byte string as a stream of
// (key, delta) pairs — one byte each, so keys collide, counts tie and the
// table compacts constantly — with a Clear wherever the input asks for one. The seed corpus runs under plain `go test`.
func FuzzTopKMatchesOracle(f *testing.F) {
	f.Add(uint8(1), []byte("abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(2), []byte{0, 0, 0, 0, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1, 15, 1, 16, 1})
	f.Add(uint8(8), binary.LittleEndian.AppendUint64(nil, 0xfeedfacecafebeef))
	zipf := make([]byte, 0, 4096)
	z := rand.NewZipf(rand.New(rand.NewSource(9)), 1.1, 1, 255)
	for len(zipf) < cap(zipf) {
		zipf = append(zipf, byte(z.Uint64()), byte(len(zipf)%5))
	}
	f.Add(uint8(8), zipf)
	f.Add(uint8(3), []byte{254, 3, 9, 1, 254, 3, 254, 3, 8, 2, 254, 3, 255, 0, 254, 3, 7, 1, 254, 3, 254, 3, 6, 0})
	f.Fuzz(func(t *testing.T, k uint8, stream []byte) {
		depth := 1 + int(k%9)
		tk, or := NewTopK(depth), newTopKOracle(depth)
		for i := 0; i+1 < len(stream); i += 2 {
			key, delta := uint64(stream[i]), uint64(stream[i+1]%4)
			if key == 255 && delta == 0 {
				tk.Clear()
				or.Clear()
			} else {
				tk.Add(key, delta)
				or.Add(key, delta)
			}
			requireSameTable(t, tk, or, "mid-stream")
		}
	})
}
