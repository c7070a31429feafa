package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// tailPercentile picks the highest of p99, p95, p90, p75 that still
// has at least ten samples beyond it in a sample of n, and 50 (the
// median) when even p75 does not: a percentile with fewer samples
// above it is one outlier's value, not a property of the system.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// geomean is the geometric mean of the positive values of xs; values
// that are not positive and finite are skipped and counted.
func geomean(xs []float64) (g float64, skipped int) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			skipped++
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(sum / float64(n)), skipped
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 is the seed-derivation hash: every generated input is a
// pure function of (-seed, workload, step, field).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed uint64, parts ...uint64) uint64 {
	h := splitmix64(seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}
