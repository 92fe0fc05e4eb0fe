package wal

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestSortedOverlayOrder: the radix sort returns the comparison sort's order
// — overlay keys are distinct, so there is only one — over the whole key
// space and over the sub-ranges a RangeScan asks for.
func TestSortedOverlayOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spread := make([]core.Key, 4096)
	for i := range spread {
		spread[i] = rng.Uint64()
	}
	spread[0], spread[1] = 0, ^core.Key(0)
	var top, bottom []core.Key
	for b := 0; b < 256; b += 5 {
		top = append(top, core.Key(b)<<56|0x00AB_CDEF_0123_4567)
		bottom = append(bottom, 0x7700_1122_3344_5500|core.Key(b))
	}
	cases := []struct {
		name string
		keys []core.Key
	}{
		{"empty", nil},
		{"one", []core.Key{42}},
		{"two", []core.Key{^core.Key(0), 0}},
		{"4096 spread", spread},
		{"top byte only", top},
		{"bottom byte only", bottom},
		{"top and bottom", append(append([]core.Key{0, ^core.Key(0)}, top...), bottom...)},
	}
	ranges := [][2]core.Key{
		{0, ^core.Key(0)},
		{0, 0},
		{^core.Key(0), ^core.Key(0)},
		{1, ^core.Key(0) - 1},
		{0x7700_1122_3344_5500, 0x7700_1122_3344_5580},
		{1 << 62, 3 << 62},
		{5, 4}, // lo > hi: nothing
	}
	for _, tc := range cases {
		l := &Logged{overlay: make(map[core.Key]entry, len(tc.keys))}
		for i, k := range tc.keys {
			l.overlay[k] = entry{val: core.Value(i), tomb: i%3 == 0, base: i%2 == 0}
		}
		for _, r := range ranges {
			var want []change
			for k, e := range l.overlay {
				if k >= r[0] && k <= r[1] {
					want = append(want, change{key: k, entry: e})
				}
			}
			slices.SortFunc(want, func(a, b change) int { return cmp.Compare(a.key, b.key) })
			if got := l.sortedOverlay(r[0], r[1]); !slices.Equal(got, want) {
				t.Fatalf("%s over [%#x, %#x]: %d changes out of order\n got %v\nwant %v", tc.name, r[0], r[1], len(got), got, want)
			}
		}
	}
}
