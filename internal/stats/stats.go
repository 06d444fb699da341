// Package stats provides the summary statistics used by the experiment
// drivers and the monitoring tools: mean, median, standard deviation and
// percentiles over float64 series.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0-100) using linear
// interpolation between closest ranks; 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile over a slice already in ascending
// order: no copy and no sort, so several percentiles of one sample cost
// one sort between them.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Stddev returns the population standard deviation, or 0 for fewer than
// two samples.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the minimum, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// PctChange returns the percentage change from a to b: (b-a)/a * 100.
func PctChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// Log2Bucket returns x's power-of-two histogram bucket: floor(log2 x),
// 0 for x < 1, clamped to n-1. It is a function rather than a histogram
// type because its callers keep their counts in different shapes.
func Log2Bucket(x uint64, n int) int {
	if x < 1 {
		return 0
	}
	return min(63-bits.LeadingZeros64(x), n-1)
}
