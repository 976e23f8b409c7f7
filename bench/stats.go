package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// median sorts a copy of xs and returns its middle element (the mean of
// the two middle ones for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// completion is one finished operation: when it completed, relative to
// the start of the timed region, and how many items it carried.
type completion struct {
	at    time.Duration
	items int
}

// medianWindowRate buckets completions into consecutive windows of
// length win over [0, region) and returns the median window's rate in
// items per second. Only whole windows count: work that completes after
// the last whole window is dropped rather than averaged in, so one
// stalled second moves the result by one rank, not by its size.
func medianWindowRate(done []completion, region, win time.Duration) float64 {
	n := int(region / win)
	if n == 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, c := range done {
		if c.at < 0 {
			continue
		}
		if w := int(c.at / win); w < n {
			counts[w] += float64(c.items)
		}
	}
	return median(counts) / win.Seconds()
}

// selfTimes turns a ladder of rung times — rungs[0] the outermost entry
// point, each later rung the same operation entered one layer lower —
// into per-layer self times: a layer's rung minus the rung below it.
// The bottom rung is all self time.
func selfTimes(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	for i := range rungs {
		self[i] = rungs[i]
		if i+1 < len(rungs) {
			self[i] -= rungs[i+1]
		}
	}
	return self
}

// f1Score is the harmonic mean of precision and recall; 0 when there is
// no true positive.
func f1Score(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}
