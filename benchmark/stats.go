package main

import (
	"math"
	"sort"
)

// The gate arithmetic of the benchmark. Everything here is a pure
// function of its input slice and never modifies it.

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile of sorted: the
// smallest sample with at least q of the samples at or below it. It is
// always one of the samples, so a bimodal sample never reports a value
// nobody observed. Empty input gives 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[nearestRank(n, q)]
}

func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// q-quantile's position among n.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - nearestRank(n, q)
}

// tailQuantiles are the candidates of tailQuantile, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile picks the highest candidate percentile, no higher than
// limit, that n samples support with at least minBeyond samples beyond
// it. Too few samples for any candidate give 0.5, the median.
func tailQuantile(n int, limit float64) float64 {
	for _, q := range tailQuantiles {
		if q <= limit && samplesBeyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// minSamplesFor is the smallest block that supports percentile q: the
// least n with minBeyond samples beyond the nearest-rank q-quantile.
func minSamplesFor(q float64) int {
	n := minBeyond + 1
	for samplesBeyond(n, q) < minBeyond {
		n++
	}
	return n
}

// median is the conventional median: the middle sample, or the mean of
// the two middle samples. Empty input gives 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is
// how the acceptance driver measures spread. Fewer than two samples
// have no spread: all three equal the sample (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	m := len(xs)
	if m == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, 0 when the median is 0.
func iqrShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// worseBy is how much worse b is than a as a share of a, in the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
