package main

import (
	"math"
	"sort"
	"time"
)

// rank is a nearest-rank percentile together with the number of samples
// above it, so a reader can tell whether a tail percentile rests on enough
// samples (the benchmark asks for at least ten beyond p99).
type rank struct {
	Value   float64
	Samples int
	Beyond  int
}

// nearestRank returns the p-th percentile (0 < p <= 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample such that at least
// p of all samples are at or below it. An empty input yields the zero rank.
func nearestRank(xs []float64, p float64) rank {
	if len(xs) == 0 {
		return rank{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return rank{Value: s[idx], Samples: len(s), Beyond: len(s) - idx - 1}
}

// median is the middle sample (the mean of the two middle samples for an
// even count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides and reports 0 for a zero base, so a layer that did no work
// reads as 0 rather than NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
