package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of values;
// 0 when there are none.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail.
const tailBeyond = 10

// supportedTail is the highest of the usual tail percentiles that has at
// least tailBeyond samples beyond it; 50 when none has.
func supportedTail(samples int) float64 {
	best := 50
	for _, p := range []int{75, 90, 95, 99} {
		if samples*(100-p) >= tailBeyond*100 {
			best = p
		}
	}
	return float64(best)
}

// quartiles returns the first and third quartile by the exclusive method,
// which is what Python's statistics.quantiles(values, n=4) computes, so
// that spreads printed here match the ones the contract asks for.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		return median(values), median(values)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}
