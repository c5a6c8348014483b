package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// beyond it: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// supports reports whether n samples carry percentile p (0 < p < 100)
// under the rule that at least minTail samples lie beyond it.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail
}

// highestSupported returns the highest percentile among candidates that
// n samples support, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if supports(n, p) && p > best {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// slicedPercentile is the median over slices of each slice's p-th
// percentile, skipping slices too small to support p: a stall of the host
// in one slice moves one of the medians' inputs, not the result. When no
// slice supports p (tiny runs), it is the p-th percentile of all samples.
// It sorts the slices in place.
func slicedPercentile(slices [][]float64, p float64) float64 {
	var per, all []float64
	for _, xs := range slices {
		if supports(len(xs), p) {
			per = append(per, percentile(xs, p))
		}
		all = append(all, xs...)
	}
	if len(per) == 0 {
		return percentile(all, p)
	}
	return median(per)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering xs; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs with
// the exclusive method, as Python's statistics.quantiles(xs, n=4) does,
// so spreads read the same in either. It needs two or more samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		// statistics.quantiles "exclusive": j = i*(n+1)/4 clamped to
		// [1, n-1], then interpolate between s[j-1] and s[j].
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median —
// the run-to-run steadiness figure the benchmark is tuned against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
