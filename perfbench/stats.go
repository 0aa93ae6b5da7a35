package main

import "sort"

// Percentiles are in per mille, so ranks are exact integer arithmetic.
const (
	p50 = 500
	p99 = 990
)

// percentileLadder lists the percentiles a timing may be reported at, high
// to low, in per mille.
var percentileLadder = []int{999, 990, 950, 900, 500}

// rank is the 1-based nearest rank of the pm-per-mille percentile of n
// samples.
func rank(n, pm int) int {
	return max(1, (pm*n+999)/1000)
}

// tailPercentile is the highest percentile of the ladder, in per mille,
// with at least ten of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) int {
	for _, pm := range percentileLadder {
		if n-rank(n, pm) >= 10 {
			return pm
		}
	}
	return 0
}

// quantile is the nearest-rank pm-per-mille percentile of sorted samples.
func quantile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pm)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p50)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
