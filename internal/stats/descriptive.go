package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanVar returns the mean and the unbiased sample variance.
func MeanVar(xs []float64) (mean, variance float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
}

// Std returns the sample standard deviation.
func Std(xs []float64) float64 {
	_, v := MeanVar(xs)
	return math.Sqrt(v)
}

// Median returns the median, or 0 for an empty slice. The input is not
// modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile over a non-empty series already in
// sort.Float64s order.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MAD returns the median absolute deviation, a robust spread estimate used
// by the Gamma detector's adaptive reference.
func MAD(xs []float64) float64 {
	_, mad := MedianMAD(xs, nil)
	return mad
}

// MedianMAD returns Median(xs) and the median absolute deviation — the
// median of |x − median| — from one sort, (0, 0) for an empty slice. The
// input is not modified. scratch, when it holds at least 2·len(xs) elements
// of capacity and does not overlap xs, spares the two working copies; pass
// nil otherwise.
//
// Both values are the bits that sorting xs and then sorting the deviations
// on their own would give. Floating-point subtraction is monotone (x ≤ y
// implies x−m ≤ y−m after rounding, overflow to ±Inf included), so over the
// sorted series the deviations below the median, read downwards, and those
// from the median up, read upwards, are two ascending runs of exactly the
// values |x − median| takes; their sorted order is a linear merge, and
// math.Abs leaves no −0 for the merge to misplace. The argument needs every
// x − median to be a number: a series holding a NaN (sort.Float64s puts it
// first) or with a non-finite median (an infinite middle element, or the
// NaN midpoint of −Inf and +Inf) takes the deviations in input order and
// sorts them instead.
func MedianMAD(xs, scratch []float64) (median, mad float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if cap(scratch) < 2*n {
		scratch = make([]float64, 2*n)
	}
	s, dev := scratch[:n], scratch[n:2*n]
	copy(s, xs)
	sort.Float64s(s)
	median = quantileSorted(s, 0.5)
	if math.IsNaN(s[0]) || math.IsNaN(median) || math.IsInf(median, 0) {
		for i, x := range xs {
			dev[i] = math.Abs(x - median)
		}
		sort.Float64s(dev)
		return median, quantileSorted(dev, 0.5)
	}
	up := sort.SearchFloat64s(s, median) // first element at or above the median
	down := up - 1
	for k := range dev {
		if down >= 0 {
			below := math.Abs(s[down] - median)
			if up == n || below <= s[up]-median {
				dev[k] = below
				down--
				continue
			}
		}
		dev[k] = math.Abs(s[up] - median)
		up++
	}
	return median, quantileSorted(dev, 0.5)
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
