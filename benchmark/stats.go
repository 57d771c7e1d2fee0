package main

import (
	"math"
	"sort"
)

// tailGuard is how many samples must lie beyond a percentile for it to be
// reported as measured rather than as an extreme of the sample.
const tailGuard = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// and whether at least tailGuard samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= tailGuard
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// quartiles returns the cut points Python's statistics.quantiles(values,
// n=4) gives (its default "exclusive" method), because that is the
// arithmetic the acceptance check applies to repeated runs. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// windowStat is one metric's per-window values folded into the reported
// median and the min/max diagnostics.
type windowStat struct{ med, lo, hi float64 }

func foldWindows(perWindow []float64) windowStat {
	lo, hi := minMax(perWindow)
	return windowStat{med: median(perWindow), lo: lo, hi: hi}
}
