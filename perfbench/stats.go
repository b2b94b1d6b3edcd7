package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no quantile and yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean; an empty sample yields 0.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// tailOK reports whether a sample of n values supports the pct-th
// percentile: at least ten samples must lie beyond it, so n·(1−pct/100)
// must reach 10. Below that, a "p99" is one or two outliers.
func tailOK(n int, pct float64) bool {
	return float64(n)*(1-pct/100) >= 10-1e-9
}

// tailPercentile returns the pct-th percentile of xs, or NaN when the
// sample is too small for tailOK.
func tailPercentile(xs []float64, pct float64) float64 {
	if !tailOK(len(xs), pct) {
		return math.NaN()
	}
	return quantile(xs, pct/100)
}

// ratio divides num by base and returns 0 for an empty base, so a layer
// a workload never reaches reports 0 instead of NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// interval is a closed-open wall-clock span [start, end).
type interval struct{ start, end time.Time }

// unionDuration returns the total time covered by the intervals,
// counting overlapping stretches once.
func unionDuration(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime is a span's duration minus the part of it its children
// cover. Children are clipped to the parent first: a child that started
// before or ended after its parent (a clock step, or a callback that
// outlived the call) cannot make self time negative.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	return parent.end.Sub(parent.start) - unionDuration(clipped)
}

// typedLatency is the geometric mean, over operation types, of each
// type's median latency. A workload's operations differ in size by
// orders of magnitude; a median over all of them lands in whichever gap
// the seed's inputs leave in the middle, while this weighs every type
// equally and lets each type's median absorb its own outliers.
func typedLatency(byType map[string][]float64) float64 {
	if len(byType) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, xs := range byType {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(byType)))
}

// closedLoopRate is the throughput of clients closed-loop clients that
// cycle through the operation types in turn, each operation taking its
// type's median latency: by Little's law, clients over the mean latency
// of a cycle. The medians set a slow outlier of each type aside. The
// rate is per unit of the latencies' time.
func closedLoopRate(clients int, byType map[string][]float64) float64 {
	var cycle float64
	for _, xs := range byType {
		cycle += median(xs)
	}
	return ratio(float64(clients*len(byType)), cycle)
}
