package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples, so that a metric nothing was measured for
// prints as 0.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0 <= p <= 100), interpolated
// between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, p/100)
}

// tailResolved reports whether n samples leave at least ten beyond the
// p-th percentile, the rule for quoting a tail percentile at all.
func tailResolved(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the ones the acceptance check computes.  It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 when there are too few samples to have quartiles.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
