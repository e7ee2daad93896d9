package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSumRun is the loop SumRun stands for, literally.
func refSumRun(c float64, n int) float64 {
	s := 0.0
	for range n {
		s += c
	}
	return s
}

// maxRun is the longest run the fuzz and random tests try: a day of 1 s PCA
// bins is 86 400, and the time axis bounds a segment's own span at 2¹⁸ bins.
const maxRun = 1 << 18

// sumRunSpecials are the c whose bits the tests always try: both zeros, both
// infinities, NaNs with and without the quiet bit and with either sign, the
// subnormal edges, the largest finite value, and values whose ulp pattern
// makes ties (0.5, 0.1 and 2⁵³+1's neighbourhood).
var sumRunSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
	math.MaxFloat64, -math.MaxFloat64, 0x1p1023, 0.5, 0.1, -0.1, 1, 3, 0x1p53 + 2, 1 + 0x1p-52,
	1.5 * 0x1p-1070, 0x1.8p-1, 0x1.0000000000001p0,
}

// TestSumRunMatchesLoop compares SumRun with the loop, bit for bit, on the
// specials at run lengths around every power of two up to maxRun, and on
// random (c, n) pairs: uniform bits, small integers and squares of the
// centred values PCA sums.
func TestSumRunMatchesLoop(t *testing.T) {
	var ns []int
	for p := 1; p <= maxRun; p *= 2 {
		ns = append(ns, p-1, p, p+1)
	}
	check := func(c float64, n int) {
		t.Helper()
		if got, want := SumRun(c, n), refSumRun(c, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SumRun(%v [%#x], %d) = %v [%#x], loop %v [%#x]", c, math.Float64bits(c), n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, c := range sumRunSpecials {
		for _, n := range ns {
			check(c, n)
		}
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(4096)
		if trial%10 == 0 {
			n = rng.Intn(maxRun + 1)
		}
		var c float64
		switch trial % 3 {
		case 0:
			c = math.Float64frombits(rng.Uint64())
		case 1:
			c = float64(rng.Intn(9) - 4)
		default:
			e := float64(rng.Intn(40))/float64(1+rng.Intn(600)) - 0.3
			c = e * e
		}
		check(c, n)
	}
}

// FuzzSumRun compares SumRun with the loop, bit for bit, for raw float64
// bits c and n in [0, 2¹⁸].
func FuzzSumRun(f *testing.F) {
	for i, c := range sumRunSpecials {
		f.Add(math.Float64bits(c), uint32(i*i*997))
	}
	f.Fuzz(func(t *testing.T, bits uint64, steps uint32) {
		c, n := math.Float64frombits(bits), int(steps%(maxRun+1))
		if got, want := SumRun(c, n), refSumRun(c, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SumRun(%v [%#x], %d) = %#x, loop %#x", c, bits, n, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// checkRun compares MeanVarRun and MedianMADRun (with and without scratch)
// with MeanVar and MedianMAD on the materialized series, bit for bit up to
// NaN payloads, and checks xs is left as it was.
func checkRun(t *testing.T, v float64, n int, xs []float64) {
	t.Helper()
	keep := slices.Clone(xs)
	dense := materialize(v, n, xs)
	wantMean, wantVar := MeanVar(dense)
	if mean, variance := MeanVarRun(v, n, xs); !sameBits(mean, wantMean) || !sameBits(variance, wantVar) {
		t.Fatalf("MeanVarRun(%v, %d, %v) = (%v, %v), MeanVar (%v, %v)", v, n, xs, mean, variance, wantMean, wantVar)
	}
	wantMed, wantMAD := MedianMAD(dense, nil)
	for _, scratch := range [][]float64{nil, make([]float64, 2*len(xs))} {
		if med, mad := MedianMADRun(v, n, xs, scratch); !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
			t.Fatalf("MedianMADRun(%v, %d, %v) = (%v, %v), MedianMAD (%v, %v)", v, n, xs, med, mad, wantMed, wantMAD)
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(keep[i]) {
			t.Fatalf("input modified at %d", i)
		}
	}
}

// TestRunStatsTable pins the run forms on the series that take each branch:
// a run that holds the median, one the median straddles, one below or above
// every element, ties with the run's value, the shortest series, and the
// specials that materialize — NaN payloads in the run and in xs, zeros of
// both signs at a middle rank, infinite and NaN medians — plus subnormals
// and ±Inf that do not.
func TestRunStatsTable(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000bad)
	inf, sub := math.Inf(1), math.SmallestNonzeroFloat64
	cases := []struct {
		v  float64
		n  int
		xs []float64
	}{
		{0, 0, nil},
		{3, 1, nil},
		{3, 2, nil},
		{0, 0, []float64{1, 2, 3}},
		{-0.25, 585, []float64{4, 1, 9, -3, 2, 2, 7, 0.5, 1, 8, 3, 3, 6, 5, 4}},
		{-0.25, 15, []float64{4, 1, 9, -3, 2, 2, 7, 0.5, 1, 8, 3, 3, 6, 5, 4}},
		{-0.25, 14, []float64{4, 1, 9, -3, 2, 2, 7, 0.5, 1, 8, 3, 3, 6, 5, 4}},
		{-0.25, 16, []float64{4, 1, 9, -3, 2, 2, 7, 0.5, 1, 8, 3, 3, 6, 5, 4}},
		{2, 3, []float64{2, 2, 1, 3}},
		{-5, 2, []float64{1, 2, 3, 4}},
		{5, 2, []float64{1, 2, 3, 4}},
		{5, 1, []float64{1, 2, 3}},
		{-5, 1, []float64{1, 2, 3}},
		{nan, 4, []float64{1, 2}},
		{1, 4, []float64{nan, 2, math.Float64frombits(0xfff0000000000001)}},
		{0, 3, []float64{negZero, 1, -1}},
		{negZero, 3, []float64{0, 1, -1}},
		{negZero, 3, []float64{negZero, 1, -1}},
		{0, 2, []float64{0, negZero, 5, -5}},
		{inf, 5, []float64{1, 2}},
		{-inf, 2, []float64{inf, inf}},
		{-inf, 1, []float64{inf}},
		{1, 3, []float64{inf, -inf, inf}},
		{sub, 7, []float64{-sub, 2 * sub, 0, sub}},
		{-sub, 300, []float64{sub, math.MaxFloat64, -math.MaxFloat64}},
	}
	for _, tc := range cases {
		checkRun(t, tc.v, tc.n, tc.xs)
	}
}

// TestRunStatsRandom compares the run forms with the dense originals on
// random series shaped like a late stream segment's residual column — a
// long run of one value beside a short occupied series — and on short runs
// with heavy ties and specials.
func TestRunStatsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64}
	for trial := 0; trial < 6000; trial++ {
		m, n := rng.Intn(40), rng.Intn(700)
		if trial%2 == 0 {
			n = rng.Intn(m + 3)
		}
		xs := make([]float64, m)
		v := rng.NormFloat64()
		switch trial % 4 {
		case 0:
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
		case 1: // ties with the run's value
			v = float64(rng.Intn(3) - 1)
			for i := range xs {
				xs[i] = float64(rng.Intn(5) - 2)
			}
		case 2: // specials
			v = specials[rng.Intn(len(specials))]
			for i := range xs {
				xs[i] = rng.NormFloat64()
				if rng.Intn(5) == 0 {
					xs[i] = specials[rng.Intn(len(specials))]
				}
			}
		default: // PCA's empty rows: one centred, scaled zero count
			mean := float64(rng.Intn(50)) / float64(n+m+1)
			v = (0 - mean) / 0.7
			for i := range xs {
				xs[i] = (float64(rng.Intn(6)) - mean) / 0.7
			}
		}
		checkRun(t, v, n, xs)
	}
}

// FuzzRunStats compares MeanVarRun and MedianMADRun with the originals on a
// materialized series: raw float64 bits for the run's value and for xs, and
// a run of up to 4 095.
func FuzzRunStats(f *testing.F) {
	le := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(math.Float64bits(-0.25), uint16(585), le(4, 1, 9, -3, 2, 2, 7))
	f.Add(math.Float64bits(0), uint16(3), le(math.Copysign(0, -1), 1, -1))
	f.Add(math.Float64bits(math.NaN()), uint16(2), le(1, math.Inf(1)))
	f.Add(math.Float64bits(math.SmallestNonzeroFloat64), uint16(9), le(0, -math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, vbits uint64, n uint16, data []byte) {
		checkRun(t, math.Float64frombits(vbits), int(n%4096), fuzzSeries(data))
	})
}
