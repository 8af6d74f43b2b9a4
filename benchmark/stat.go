package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that
// is the spread the acceptance rule is stated in. Fewer than two
// samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// i-th of 4 cut points over m = n+1 positions.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// scaled returns xs multiplied by k, for reporting nanosecond samples
// in another unit.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// sumOfMedians is the metric for work timed in parts over several
// passes: each part's median over the passes, added up. One slow pass
// then costs each part at most its own outlier, not the whole pass.
func sumOfMedians(unit string, parts [][]float64) metric {
	m := metric{Unit: unit}
	for _, p := range parts {
		q1, q3 := quartiles(p)
		m.Value += stats.Median(p)
		m.Q1 += q1
		m.Q3 += q3
		m.N = len(p)
	}
	return m
}
