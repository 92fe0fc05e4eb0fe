package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summary is a median with the quartiles around it. For a wall-clock metric
// the samples are the timed rounds of one run, and the distance between the
// quartiles is the run's own estimate of its noise.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(samples []float64) summary {
	s := slices.Clone(samples)
	slices.Sort(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// iqrShare is the inter-quartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// rankNs returns the q-quantile of sorted nanosecond samples by nearest
// rank, so a reported latency is one that was measured.
func rankNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps the +Inf a rum.Meter reports for an amplification over zero
// logical bytes to 0, so every metric is a finite number.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

var refSink uint64

// refKernel times a fixed pure-CPU loop, splitmix64 over a 32 KiB buffer for
// about a millisecond, and returns its nanoseconds. It runs right before and
// right after everything that is timed. On a shared host other tenants take
// the processor in bursts, and the kernel then reads well above its usual
// time, about double when it had to share its core: a timing bracketed by
// such a reading was disturbed, and is left out of the medians.
func refKernel(buf *[4096]uint64) float64 {
	t0 := time.Now()
	x := refSink | 1
	for pass := 0; pass < 192; pass++ {
		for i := range buf {
			x += 0x9e3779b97f4a7c15
			z := x ^ buf[i]
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			buf[i] = z ^ (z >> 31)
		}
	}
	refSink = x ^ buf[0]
	return float64(time.Since(t0).Nanoseconds())
}

// disturbedAbove is how far over the run's median reference reading a
// reading may be before the timing next to it counts as disturbed. The
// median and not the fastest reading: when neighbours slow the host for a
// whole run, that pace is the run's, and the few fast moments are the
// exception. Readings on a steady host stay within a fifth of each other.
const disturbedAbove = 1.3

// timedSample is one wall-clock reading with the slower of the reference
// readings taken around it.
type timedSample struct{ v, refMax float64 }

func (s timedSample) disturbed(usual float64) bool { return s.refMax > disturbedAbove*usual }

// steady returns the readings that were not disturbed. With fewer than five
// of those, or fewer than half when there are under ten in all, it returns
// every reading: a median of what there is beats a median of a handful.
func steady(samples []timedSample, usual float64) []float64 {
	var kept, all []float64
	for _, s := range samples {
		all = append(all, s.v)
		if !s.disturbed(usual) {
			kept = append(kept, s.v)
		}
	}
	if len(kept) < min(5, (len(all)+1)/2) {
		return all
	}
	return kept
}
