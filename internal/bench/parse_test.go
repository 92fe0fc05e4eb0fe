package bench

import "testing"

// FuzzParseKeyDist: any string ParseKeyDist accepts reaches the same
// distribution through String and back, and no input panics.
func FuzzParseKeyDist(f *testing.F) {
	for _, s := range []string{"", "uniform", "zipf", "zipf:1.1", "hotspot", "hotspot:90/10",
		"hotspot:0.8/.2", "hotspot:0.5/0.005", "hotspot:99.9/1e-3", "zipf:NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseKeyDist(s)
		if err != nil {
			return
		}
		d2, err := ParseKeyDist(d.String())
		if err != nil || d2 != d {
			t.Fatalf("ParseKeyDist(%q) = %+v; its String %q parses to %+v, %v", s, d, d.String(), d2, err)
		}
	})
}

// FuzzParseServeMix: any string ParseServeMix accepts reaches the same mix
// through String and back, and no input panics. ScanRows is compared as the
// generator reads it: it means nothing without scans, and 0 is the default.
func FuzzParseServeMix(f *testing.F) {
	for _, s := range []string{"", "read99", "read100,getmiss=0.2", "get=0.6,scan=0.4",
		"get=0.5,insert=0.2,update=0.15,delete=0.15", "get=0.5,scan=0.5,scanrows=16", "scanrows=8", "get=-0"} {
		f.Add(s)
	}
	scanned := func(m ServeMix) ServeMix {
		if m.ScanRows = 0; m.Scan > 0 {
			m.ScanRows = m.scanRows()
		}
		return m
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseServeMix(s)
		if err != nil {
			return
		}
		m2, err := ParseServeMix(m.String())
		if err != nil || scanned(m2) != scanned(m) {
			t.Fatalf("ParseServeMix(%q) = %+v; its String %q parses to %+v, %v", s, m, m.String(), m2, err)
		}
	})
}
