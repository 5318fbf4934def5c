package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs;
// 0 when xs is empty.
func percentile(sortedXs []float64, p float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sortedXs))))
	if rank < 1 {
		rank = 1
	}
	return sortedXs[rank-1]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so the
// spread printed here is the one the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
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
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// tailPercentile is the highest of a few percentiles that still has at
// least ten samples beyond it; 0 when even p90 has not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
