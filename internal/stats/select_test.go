package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestQuantileMatchesReference compares Quantile to the sorting reference on
// series of odd and even length — continuous, tied, and sprinkled with
// signed zeros, infinities and NaNs — at q ≤ 0, q ≥ 1 and at every order
// statistic and every midpoint between two neighbouring ones. A NaN q is NaN.
func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 12; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch trial % 3 {
				case 0:
					xs[i] = rng.NormFloat64()
				case 1:
					xs[i] = float64(rng.Intn(5) - 2)
				case 2:
					xs[i] = rng.NormFloat64()
					if rng.Intn(4) == 0 {
						xs[i] = specials[rng.Intn(len(specials))]
					}
				}
			}
			keep := slices.Clone(xs)
			qs := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 1.5, math.Inf(1)}
			for i := 0; n > 1 && i <= 2*(n-1); i++ {
				qs = append(qs, float64(i)/float64(2*(n-1)))
			}
			for _, q := range qs {
				if got, want := Quantile(xs, q), refQuantile(xs, q); !sameBits(got, want) {
					t.Fatalf("Quantile(%v, %v) = %v, reference %v", xs, q, got, want)
				}
			}
			if got := Quantile(xs, math.NaN()); !math.IsNaN(got) {
				t.Fatalf("Quantile(%v, NaN) = %v, want NaN", xs, got)
			}
			if !slices.EqualFunc(xs, keep, sameBits) {
				t.Fatalf("Quantile modified its input %v", keep)
			}
		}
	}
	if got := Quantile(nil, math.NaN()); got != 0 {
		t.Errorf("Quantile(nil, NaN) = %v, want 0", got)
	}
}

// TestSignedZeroCarveOut runs series of zeros of both signs among ±1 and the
// smallest subnormal, whose middle ranks are mostly zeros. MedianMAD and
// Quantile must match the sorting reference bit for bit, many series must
// take the sort — counted the way TestMedianMADMatchesMedianAndMAD counts
// its non-finite series — and on some of those selection alone must carry
// the other sign, or the carve-out would be dead code.
func TestSignedZeroCarveOut(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	values := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1, -math.SmallestNonzeroFloat64}
	sorted, otherSign := 0, 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(80)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = values[rng.Intn(len(values))]
		}
		if med, mad := MedianMAD(xs, nil); !sameBits(med, refMedian(xs)) || !sameBits(mad, refMAD(xs)) {
			t.Fatalf("MedianMAD(%v) = (%v, %v), reference (%v, %v)", xs, med, mad, refMedian(xs), refMAD(xs))
		}
		if q := rng.Float64(); !sameBits(Quantile(xs, q), refQuantile(xs, q)) {
			t.Fatalf("Quantile(%v, %v) = %v, reference %v", xs, q, Quantile(xs, q), refQuantile(xs, q))
		}
		ref := slices.Clone(xs)
		sort.Float64s(ref)
		lo, hi := (n-1)/2, n/2
		if (ref[lo] == 0 || ref[hi] == 0) && signedZeros(xs) {
			sorted++
			s := slices.Clone(xs)
			selectRank(s, lo)
			if !sameBits(s[lo], ref[lo]) {
				otherSign++
			}
		}
	}
	if sorted < 1000 {
		t.Fatalf("only %d series took the signed-zero sort", sorted)
	}
	if otherSign == 0 {
		t.Fatal("selection matched the sorted zero's sign on every series")
	}
}

// TestMedianMADScratchAllocatesNothing pins the scratch contract: with 2·n
// elements of capacity, MedianMAD allocates nothing.
func TestMedianMADScratchAllocatesNothing(t *testing.T) {
	xs := make([]float64, 900)
	for i := range xs {
		xs[i] = float64(i % 37)
	}
	scratch := make([]float64, 2*len(xs))
	if allocs := testing.AllocsPerRun(10, func() { MedianMAD(xs, scratch) }); allocs != 0 {
		t.Errorf("MedianMAD with scratch allocated %v objects, want 0", allocs)
	}
}

// medianOf3Killer returns n distinct values on which each of the first
// rounds partitions selectRank would make toward rank k pivots on the second
// smallest element of its range, so a Hoare partition splits off one or two
// elements (Musser's median-of-3 killer, built against selectRank's sample
// positions instead of the first, middle and last). It replays those rounds
// on the elements' original indices, fixing a value only when the sample
// first looks at it, smaller than every value still open — McIlroy's
// adversary, resolved offline — and opens the rest in index order at the end.
func medianOf3Killer(n, k, rounds int) []float64 {
	val := make([]int, n) // by original index; 0 while open, above every fixed value
	next := 1
	at := make([]int, n) // slot → original index, permuted as selectRank permutes
	for i := range at {
		at[i] = i
	}
	below := func(x, v int) bool { return val[x] != 0 && val[x] < v }
	above := func(x, v int) bool { return val[x] == 0 || val[x] > v }
	lo, hi := 0, n
	for round := 0; round < rounds && hi-lo > insertionMax; round++ {
		m := hi - lo
		// Fix open samples until at most one is open: the pivot, the middle
		// of the three, is then the larger of two small fixed values.
		sample := []int{at[lo+m/4], at[lo+m/2], at[lo+3*m/4]}
		open := 0
		for _, x := range sample {
			if val[x] == 0 {
				open++
			}
		}
		vs := make([]int, 0, 3)
		for _, x := range sample {
			if val[x] == 0 && open > 1 {
				val[x] = next
				next++
				open--
			}
			if val[x] == 0 {
				vs = append(vs, math.MaxInt)
			} else {
				vs = append(vs, val[x])
			}
		}
		slices.Sort(vs)
		p := vs[1]
		i, j := lo, hi
		for {
			for below(at[i], p) {
				i++
			}
			j--
			for above(at[j], p) {
				j--
			}
			if i >= j {
				break
			}
			at[i], at[j] = at[j], at[i]
			i++
		}
		if k < i {
			hi = i
		} else {
			lo = i
		}
	}
	xs := make([]float64, n)
	for x := range xs {
		if val[x] == 0 {
			val[x] = next
			next++
		}
		xs[x] = float64(val[x])
	}
	return xs
}

// TestSelectRankAdversarial selects the median of 10⁵ elements laid out to
// hurt a quickselect and counts the comparisons. Ascending, descending and
// organ-pipe input must stay linear (at most 3n), and all-equal input must
// end in its first three-way split. The median-of-3 killer is built for four
// times the 2·log₂(n) rounds selectRank allows to fail: it must exhaust that
// budget — more than n/2 comparisons a round for all of them — and
// selectRank must still finish within the budget's rounds plus a heap sort
// of the whole range, which it could not if it kept partitioning.
func TestSelectRankAdversarial(t *testing.T) {
	const n = 100_000
	k := (n - 1) / 2
	budget := 2 * bits.Len(uint(n))
	killer := medianOf3Killer(n, k, 4*budget)
	for _, in := range []struct {
		name  string
		value func(i int) float64
		bound int
	}{
		{"ascending", func(i int) float64 { return float64(i) }, 3 * n},
		{"descending", func(i int) float64 { return float64(n - i) }, 3 * n},
		{"organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) }, 3 * n},
		{"all-equal", func(int) float64 { return 7 }, n + 5},
		// Each round compares at most n+7 times, a heap sort at most
		// 2·log₂(n)+2 times per element.
		{"median-of-3 killer", func(i int) float64 { return killer[i] }, budget*(n+7) + 2*n*(bits.Len(uint(n))+1)},
	} {
		s := make([]float64, n)
		for i := range s {
			s[i] = in.value(i)
		}
		want := slices.Clone(s)
		slices.Sort(want)
		cmps := selectRank(s, k)
		t.Logf("%s: %d comparisons (%.2f n)", in.name, cmps, float64(cmps)/n)
		if s[k] != want[k] || slices.Max(s[:k]) > s[k] || slices.Min(s[k+1:]) < s[k] {
			t.Fatalf("%s: s[%d] = %v, want %v with nothing larger before it or smaller after", in.name, k, s[k], want[k])
		}
		if cmps > in.bound {
			t.Errorf("%s: %d comparisons, bound %d", in.name, cmps, in.bound)
		}
		if in.name == "median-of-3 killer" && cmps <= budget*n/2 {
			t.Errorf("%s: %d comparisons, too few to have exhausted the budget", in.name, cmps)
		}
	}
}

// fuzzSeries reads data as raw float64 bits, eight little-endian bytes a
// value, at most 4096 of them: every NaN payload, both zeros, both
// infinities and the subnormals can appear.
func fuzzSeries(data []byte) []float64 {
	xs := make([]float64, 0, min(len(data)/8, 4096))
	for ; len(data) >= 8 && len(xs) < 4096; data = data[8:] {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return xs
}

// FuzzMedianMAD compares MedianMAD (with and without scratch), Median, MAD
// and Quantile at the fuzzed q with the sorting references, bit for bit, on
// arbitrary float64 series, and checks the series is left as it was.
func FuzzMedianMAD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		xs := fuzzSeries(data)
		keep := slices.Clone(xs)
		wantMed, wantMAD := refMedian(xs), refMAD(xs)
		for _, scratch := range [][]float64{nil, make([]float64, 2*len(xs))} {
			if med, mad := MedianMAD(xs, scratch); !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
				t.Fatalf("MedianMAD = (%v, %v), reference (%v, %v)", med, mad, wantMed, wantMAD)
			}
		}
		if med, mad := Median(xs), MAD(xs); !sameBits(med, wantMed) || !sameBits(mad, wantMAD) {
			t.Fatalf("Median, MAD = (%v, %v), reference (%v, %v)", med, mad, wantMed, wantMAD)
		}
		want := math.NaN()
		if len(xs) == 0 || !math.IsNaN(q) {
			want = refQuantile(xs, q)
		}
		if got := Quantile(xs, q); !sameBits(got, want) {
			t.Fatalf("Quantile(q=%v) = %v, reference %v", q, got, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(keep[i]) {
				t.Fatalf("input modified at %d", i)
			}
		}
	})
}
