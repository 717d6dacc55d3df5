package main

import (
	"math"
	"slices"
	"time"
)

// histSpan is the latency range latencyHist counts in 1µs buckets; longer
// samples are kept exactly.
const histSpan = 100 * time.Millisecond

// latencyHist pools a run's operation latencies in fixed memory: one counter
// per microsecond up to histSpan, exact samples beyond. The benchmark's own
// heap therefore does not grow with the run and does not leak into
// peak_heap_mb, while nearest-rank percentiles stay exact to 1µs.
type latencyHist struct {
	counts []uint32
	over   []time.Duration
	n      int
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint32, histSpan/time.Microsecond)}
}

func (h *latencyHist) add(ds []time.Duration) {
	for _, d := range ds {
		if b := int(d / time.Microsecond); b >= 0 && b < len(h.counts) {
			h.counts[b]++
		} else {
			h.over = append(h.over, d)
		}
		h.n++
	}
}

// rank returns the nearest-rank p-th percentile in milliseconds, reading a
// bucket as its midpoint.
func (h *latencyHist) rank(p float64) rank {
	if h.n == 0 {
		return rank{}
	}
	idx := int(math.Ceil(p*float64(h.n))) - 1
	idx = max(0, min(idx, h.n-1))
	r := rank{Samples: h.n, Beyond: h.n - idx - 1}
	seen := 0
	for b, c := range h.counts {
		seen += int(c)
		if seen > idx {
			r.Value = (float64(b) + 0.5) / 1000
			return r
		}
	}
	over := slices.Clone(h.over)
	slices.Sort(over)
	r.Value = float64(over[idx-seen]) / float64(time.Millisecond)
	return r
}
