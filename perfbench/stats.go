package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, and how many samples lie
// strictly above it. xs is not modified.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

// maxSegments caps how many segments a latency quantile is taken over.
const maxSegments = 32

// fastQ places a run's figure among its windows (rounds or segments): it
// is the share of the windows allowed to be faster than the figure. The
// shared host the benchmark runs on changes speed by up to 2x for
// seconds at a time with its other tenants' load; the slow windows move
// with how much of a run such spells cover, and the faster quarter of
// the windows moves less.
const fastQ = 0.25

// segmentedQuantile cuts the samples, in the order their rounds ran, into
// as many segments of whole rounds (at most maxSegments) as leave at
// least ten samples beyond the q-quantile in each, and returns the
// fastQ-quantile of the segments' q-quantiles. A spell of outside
// interference then slows some segments, not the result, and every
// segment holds whole rounds, so the same mix of requests. roundLens
// gives each round's sample count. It also returns the number of
// segments and the smallest number of samples beyond the quantile in one.
func segmentedQuantile(xs []float64, roundLens []int, q float64) (v float64, segs, beyond int) {
	segs = min(maxSegments, len(roundLens), max(1, int(float64(len(xs))*(1-q)/10)))
	starts := make([]int, len(roundLens)+1)
	for i, n := range roundLens {
		starts[i+1] = starts[i] + n
	}
	vals := make([]float64, segs)
	beyond = len(xs)
	for i := range vals {
		lo, hi := i*len(roundLens)/segs, (i+1)*len(roundLens)/segs
		var b int
		vals[i], b = quantile(xs[starts[lo]:starts[hi]], q)
		beyond = min(beyond, b)
	}
	v, _ = quantile(vals, fastQ)
	return v, segs, beyond
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
