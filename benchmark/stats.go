package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the driver uses to judge
// run-to-run spread, so the figures printed here are the figures it
// will compute. Fewer than two values have no quartiles: all three
// results are the median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	s := sorted(v)
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[rank(len(v), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n sorted samples. The small guard keeps a product such as
// 99.9*1000/100, which floating point puts a hair above 999, from
// rounding up a whole rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the tail percentiles a latency sample may report.
var tailPercentiles = []float64{90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten samples beyond it, or 0 when even p90 has fewer (the
// median is then the only honest figure).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// Samples strictly above the nearest-rank position.
		if beyond := n - rank(n, p); n > 0 && beyond >= 10 {
			best = p
		}
	}
	return best
}
