package stats

import (
	"math"
	"math/bits"
	"slices"
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

// Quantile returns the q-quantile with linear interpolation between order
// statistics: q ≤ 0 is the minimum, q ≥ 1 the maximum, a NaN q is NaN, and
// an empty slice is 0. The input is not modified. It selects the one or two
// order statistics it needs and is bit-identical to sorting a copy with
// sort.Float64s and reading them off (see MedianMAD).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	return quantile(s, nansFirst(s), xs, q)
}

// MAD returns the median absolute deviation of xs, MedianMAD's second value.
func MAD(xs []float64) float64 {
	_, mad := MedianMAD(xs, nil)
	return mad
}

// MedianMAD returns Median(xs) and the median absolute deviation — the
// median of |x − median| — (0, 0) for an empty slice, in expected linear
// time. The input is not modified. scratch, when it holds at least
// 2·len(xs) elements of capacity and does not overlap xs, spares the two
// working copies and nothing is allocated; pass nil otherwise.
//
// Both values are selected, not sorted: the median is the element of rank
// ⌊(n−1)/2⌋ in sort.Float64s order (NaN before everything), combined for
// even n with the smallest element above it, and the MAD is the same
// selection over |x − median| taken in input order. Both are the bits that
// sorting xs and then sorting the deviations would give, with one carve-out
// that selection cannot decide: −0 and +0 are equal keys, so where a zero
// sits at a middle rank and xs holds zeros of both signs, the sign the
// median carries is wherever sort.Float64s happened to leave each zero.
// Only those series are sorted, a copy of xs in input order, as before. The
// deviations hold no −0, so the MAD is always selected.
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
	nans := nansFirst(s)
	median = quantile(s, nans, xs, 0.5)
	for i, x := range xs {
		dev[i] = math.Abs(x - median)
	}
	// |x − median| is NaN only where x is or the median is not finite.
	if nans > 0 || math.IsInf(median, 0) || math.IsNaN(median) {
		nans = nansFirst(dev)
	}
	return median, quantile(dev, nans, nil, 0.5)
}

// nansFirst moves the NaNs of s, which sort.Float64s puts before every
// number, to its front and returns how many there are.
func nansFirst(s []float64) (nans int) {
	for i, x := range s {
		if x != x {
			s[i], s[nans] = s[nans], x
			nans++
		}
	}
	return nans
}

// quantile is Quantile over a non-empty working copy s of xs whose first
// nans elements are its NaNs; it permutes s. xs is read again only for the
// signed-zero carve-out, and may be nil when s holds no −0.
func quantile(s []float64, nans int, xs []float64, q float64) float64 {
	if math.IsNaN(q) {
		return q
	}
	pos := min(max(q, 0), 1) * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo < nans {
		return s[lo] // a NaN, alone or interpolated
	}
	selectRank(s[nans:], lo-nans)
	below, above := s[lo], s[lo]
	if hi > lo {
		// Rank hi = lo+1 is the minimum of what lies above rank lo, which
		// s[hi] already is when it equals s[lo].
		above = s[hi]
		if above != below {
			for _, x := range s[hi+1:] {
				if x < above {
					above = x
				}
			}
		}
	}
	if (below == 0 || above == 0) && signedZeros(xs) {
		copy(s, xs)
		sort.Float64s(s)
		below, above = s[lo], s[hi]
	}
	if lo == hi {
		return below
	}
	frac := pos - float64(lo)
	return below*(1-frac) + above*frac
}

// signedZeros reports whether xs holds both −0 and +0.
func signedZeros(xs []float64) bool {
	var neg, pos bool
	for _, x := range xs {
		if x == 0 {
			if math.Signbit(x) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}

// insertionMax is the longest range selectRank finishes by insertion sort.
const insertionMax = 16

// selectRank permutes s, which holds no NaN, so that s[k] is its element of
// rank k in ascending order, with no larger element before it and no
// smaller one after. It is an introselect: partitions around the median of
// the elements a quarter, half and three quarters into the range narrow the
// range holding k until insertion sort finishes it (ascending, descending
// and organ-pipe input all split in half), and once 2·log₂(len(s)) rounds
// have failed to halve the range, the range is heap-sorted instead —
// expected O(n), worst case O(n log n). A sample of three distinct values
// gets a Hoare partition; a tie in it means many equal keys are likely (a
// detector column that is mostly empty rows), so the range is split three
// ways and k landing among the keys equal to the pivot ends the search. It
// returns the number of comparisons it made, counting five for each pivot
// choice.
func selectRank(s []float64, k int) (cmps int) {
	lo, hi := 0, len(s)
	budget := 2 * bits.Len(uint(len(s)))
	for hi-lo > insertionMax {
		if budget == 0 {
			return cmps + heapSort(s[lo:hi])
		}
		n := hi - lo
		a, p, c := s[lo+n/4], s[lo+n/2], s[lo+3*n/4]
		if p < a {
			a, p = p, a
		}
		if c < p {
			p, c = c, p
			if p < a {
				a, p = p, a
			}
		}
		cmps += 5
		if a < p && p < c {
			// The pivot is one of the three, so each scan stops inside the
			// range before the first swap, and at a swapped element after it.
			i, j := lo, hi
			for {
				for s[i] < p {
					i++
				}
				j--
				for p < s[j] {
					j--
				}
				if i >= j {
					break
				}
				s[i], s[j] = s[j], s[i]
				i++
			}
			// Scanning compared every element once, those at i and j twice.
			cmps += n + 1 + i - j
			if k < i {
				hi = i
			} else {
				lo = i
			}
		} else {
			// [lo, lt) < p, [lt, gt) = p, [gt, hi) > p: an element equal to
			// the pivot took one comparison, any other two.
			lt, i, gt := lo, lo, hi
			for i < gt {
				switch x := s[i]; {
				case x == p:
					i++
				case x < p:
					s[i], s[lt] = s[lt], x
					lt++
					i++
				default:
					gt--
					s[i], s[gt] = s[gt], x
				}
			}
			cmps += 2*n - (gt - lt)
			switch {
			case k < lt:
				hi = lt
			case k >= gt:
				lo = gt
			default:
				return cmps
			}
		}
		if 2*(hi-lo) > n {
			budget--
		}
	}
	return cmps + insertionSort(s[lo:hi])
}

// insertionSort sorts s and returns the comparisons it made.
func insertionSort(s []float64) (cmps int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			cmps++
			if !(s[j] < s[j-1]) {
				break
			}
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return cmps
}

// heapSort sorts s in O(n log n) comparisons whatever its order and returns
// how many it made.
func heapSort(s []float64) (cmps int) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		cmps += siftDown(s, i, len(s))
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		cmps += siftDown(s, 0, end)
	}
	return cmps
}

// siftDown restores the max-heap order of s[:n] below root.
func siftDown(s []float64, root, n int) (cmps int) {
	for {
		child := 2*root + 1
		if child >= n {
			return cmps
		}
		if child+1 < n {
			cmps++
			if s[child] < s[child+1] {
				child++
			}
		}
		cmps++
		if !(s[root] < s[child]) {
			return cmps
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}
