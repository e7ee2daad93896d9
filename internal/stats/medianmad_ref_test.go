package stats

// This file keeps the three-sort Median/MAD pair MedianMAD replaced —
// Median(xs) sorts a copy, MAD sorts a second copy for the same median and a
// third for the deviations — and the sorting Quantile the selection kernel
// replaced, as the bit-for-bit references.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refQuantile is the sorting Quantile: a sorted copy, its order statistics
// read off and interpolated. A NaN q indexes out of range, which is why
// Quantile checks for it first.
func refQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
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

// refMedian is the pre-MedianMAD Median: Quantile(xs, 0.5) on a fresh sorted
// copy.
func refMedian(xs []float64) float64 {
	return refQuantile(xs, 0.5)
}

// refMAD is the pre-MedianMAD MAD, unchanged.
func refMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := refMedian(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return refMedian(dev)
}

// sameBits reports bit equality, with every NaN equal to every other: the
// payload a NaN carries out of an interpolation is not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMedianMADMatchesMedianAndMAD compares MedianMAD (with and without a
// caller's scratch), Median and MAD to the three-sort reference on random
// series of length 0 to 70: continuous values, heavy ties, one value repeated
// over more than half the series (a detector column that is mostly empty
// rows), signed zeros, infinities on either side of the median, and NaNs.
func TestMedianMADMatchesMedianAndMAD(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	scratch := make([]float64, 140)
	fallbacks := 0
	for trial := 0; trial < 24000; trial++ {
		n := rng.Intn(71)
		if trial < 1000 {
			n = trial % 8 // the short series, where lo == hi and the midpoint alternate
		}
		xs := make([]float64, n)
		switch kind := trial % 6; kind {
		case 0: // continuous
			for i := range xs {
				xs[i] = rng.NormFloat64() * 10
			}
		case 1: // heavy ties
			for i := range xs {
				xs[i] = float64(rng.Intn(5) - 2)
			}
		case 2: // one value over more than half the series
			v := math.Floor(rng.NormFloat64() * 3)
			for i := range xs {
				xs[i] = v
				if rng.Intn(3) == 0 {
					xs[i] = rng.NormFloat64()
				}
			}
		case 3: // signed zeros among small integers
			for i := range xs {
				xs[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
			}
		case 4: // specials sprinkled over continuous values
			for i := range xs {
				xs[i] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					xs[i] = specials[rng.Intn(len(specials))]
				}
			}
		case 5: // mostly specials
			for i := range xs {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
		keep := slices.Clone(xs)
		wantMed, wantMAD := refMedian(xs), refMAD(xs)
		if n > 0 && (math.IsNaN(wantMed) || math.IsInf(wantMed, 0) || slices.ContainsFunc(xs, math.IsNaN)) {
			fallbacks++
		}
		for _, sc := range [][]float64{nil, scratch, scratch[:0:n]} {
			med, mad := MedianMAD(xs, sc)
			if !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
				t.Fatalf("trial %d: MedianMAD(%v) = (%v, %v), reference (%v, %v)", trial, xs, med, mad, wantMed, wantMAD)
			}
		}
		if med, mad := Median(xs), MAD(xs); !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
			t.Fatalf("trial %d: Median, MAD of %v = (%v, %v), reference (%v, %v)", trial, xs, med, mad, wantMed, wantMAD)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(keep[i]) {
				t.Fatalf("trial %d: input modified at %d", trial, i)
			}
		}
	}
	if fallbacks < 100 {
		t.Fatalf("only %d series took the non-finite path", fallbacks)
	}
}
