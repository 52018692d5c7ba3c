package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and the
// number of samples it was taken from, so every reported timing carries its
// sample count. An empty input yields (0, 0).
func quantile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i], n
}

// tail returns the highest quantile of xs with at least ten samples
// beyond it, capped at the 99th percentile and floored at the median, with
// the quantile it took and the sample count. With a thousand samples or
// more it is the p99; with fewer it is the eleventh-slowest sample, so a
// few outliers cannot set it.
func tail(xs []float64) (v, q float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := min(n-11, int(math.Ceil(0.99*float64(n)))-1)
	i = max(i, int(math.Ceil(0.5*float64(n)))-1)
	return s[i], float64(i+1) / float64(n), n
}

// median is the midpoint of xs (the mean of the two middle values for an
// even count), used where a run repeats a step a handful of times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
