package stats

import (
	"cmp"
	"math"
)

// The run forms below describe a series that opens with n copies of one
// value v — a detector's empty time bins ahead of a stream segment, carried
// as one virtual row — and give the bits the dense series would, without
// materializing it.

// SumRun returns what n sequential additions s += c leave in s, starting
// from s = +0, bit for bit, in a number of steps that follows the binades s
// crosses rather than n.
//
// Inside one binade [2^e, 2^(e+1)) every s is a multiple m of the binade's
// ulp u, and c = q·u + r with 0 ≤ r < u (s ≥ c, so u is at least c's ulp).
// While the exact sum stays below 2^(e+1), one step rounds (m+q)·u + r to a
// multiple of u: it adds q when r < u/2 and q+1 when r > u/2, and on a tie
// whichever of the two leaves m even. Once m is even a tie always adds the
// even one, so after at most one real step every step in the binade adds the
// same d, and how many of them stay in it is one division. The step that
// leaves a binade is a real addition, and so is every step of a non-finite
// c. Subnormals share the lowest normal binade's ulp and count as part of
// it. A negative c mirrors a positive one: rounding to nearest is symmetric.
func SumRun(c float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	neg := c < 0
	if neg {
		c = -c
	}
	s := 0.0
	for n > 0 {
		t := s + c
		n--
		if math.Float64bits(t) == math.Float64bits(s) {
			break // c no longer moves s: every later step is this one
		}
		s = t
		if n == 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			continue
		}
		sb, cb := math.Float64bits(s), math.Float64bits(c)
		se, ce := max(sb>>52, 1), max(cb>>52, 1) // biased exponents
		base := (se - 1) << 52
		m := sb - base // s = m·u; base+m is s's bits even where m reaches 2^53
		mc := cb & (1<<52 - 1)
		if cb>>52 != 0 {
			mc |= 1 << 52
		}
		shift := se - ce // u = 2^shift · c's ulp
		q, tie := mc>>min(shift, 63), 0
		switch {
		case shift > 54:
			tie = -1 // c < 2^53 of its ulps ≤ u/4
		case shift > 0:
			r, half := mc&(1<<shift-1), uint64(1)<<(shift-1)
			tie = cmp.Compare(r, half)
		default:
			tie = -1 // r = 0
		}
		d := q
		if tie > 0 || tie == 0 && q&1 == 1 {
			d++
		}
		const top = 1 << 53 // m at the next binade's lower edge
		if tie == 0 && m&1 == 1 || m+q >= top {
			continue // the next step settles the tie parity or leaves the binade
		}
		if d == 0 {
			break
		}
		k := min((top-1-q-m)/d+1, uint64(n))
		s = math.Float64frombits(base + m + k*d)
		n -= int(k)
	}
	if neg {
		return -s
	}
	return s
}

// MeanVarRun returns MeanVar of n copies of v followed by xs. Every sum the
// run enters is SumRun's, which is the sequential sum bit for bit for every
// c, NaN and ±0 included, so no input needs the series materialized.
func MeanVarRun(v float64, n int, xs []float64) (mean, variance float64) {
	total := n + len(xs)
	if total == 0 {
		return 0, 0
	}
	s := SumRun(v, n)
	for _, x := range xs {
		s += x
	}
	mean = s / float64(total)
	if total < 2 {
		return mean, 0
	}
	d := v - mean
	ss := SumRun(float64(d*d), n)
	for _, x := range xs {
		d := x - mean
		ss += float64(d * d)
	}
	return mean, ss / float64(total-1)
}

// MedianMADRun returns MedianMAD of n copies of v followed by xs; xs is not
// modified, and scratch follows MedianMAD's contract for len(xs). The run's
// ranks are counted, not copied: its n copies of v sit between the elements
// of xs below v and those above it, so each middle rank is either v or an
// element of xs selected at a rank shifted by n. Where selection cannot
// decide MedianMAD's bits — a NaN in the series, zeros of both signs at a
// middle rank, or a median that is not finite, whose deviations hold NaNs —
// the series is materialized and handed to MedianMAD.
func MedianMADRun(v float64, n int, xs, scratch []float64) (median, mad float64) {
	if n == 0 {
		return MedianMAD(xs, scratch)
	}
	m := len(xs)
	if cap(scratch) < 2*m {
		scratch = make([]float64, 2*m)
	}
	s, dev := scratch[:m], scratch[m:2*m]
	copy(s, xs)
	if v != v || nansFirst(s) > 0 {
		return MedianMAD(materialize(v, n, xs), nil)
	}
	below, above, frac := runMiddle(v, n, s)
	if below == 0 || above == 0 {
		neg, pos := zeroSigns(xs)
		if v == 0 {
			neg, pos = neg || math.Signbit(v), pos || !math.Signbit(v)
		}
		if neg && pos {
			return MedianMAD(materialize(v, n, xs), nil)
		}
	}
	median = lerp(below, above, frac)
	if math.IsInf(median, 0) || median != median {
		return MedianMAD(materialize(v, n, xs), nil)
	}
	for i, x := range xs {
		dev[i] = math.Abs(x - median)
	}
	return median, lerp(runMiddle(math.Abs(v-median), n, dev))
}

// runMiddle returns the elements of ranks ⌊(N−1)/2⌋ and ⌈(N−1)/2⌉, in
// sort.Float64s order, of n ≥ 1 copies of v together with s, N = n+len(s),
// and the fraction quantile interpolates the median with. s holds no NaN;
// runMiddle permutes it.
func runMiddle(v float64, n int, s []float64) (below, above, frac float64) {
	pos := float64(0.5 * float64(n+len(s)-1))
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	less, equal := 0, 0
	for _, x := range s {
		if x < v {
			less++
		} else if x == v {
			equal++
		}
	}
	// rank returns the rank in s of the series' rank k, or −1 where k is one
	// of the ranks v holds.
	rank := func(k int) int {
		switch {
		case k < less:
			return k
		case k < less+n+equal:
			return -1
		}
		return k - n
	}
	below = v
	if r := rank(lo); r >= 0 {
		selectRank(s, r)
		below = s[r]
	}
	above = below
	if hi > lo {
		switch r := rank(hi); {
		case r < 0:
			above = v
		case rank(lo) >= 0:
			// s[r−1] is selected: rank r is the least of what follows it.
			above = s[r]
			for _, x := range s[r+1:] {
				if x < above {
					above = x
				}
			}
		default:
			// lo is v's last rank, so hi is the least element above v.
			above = math.Inf(1)
			for _, x := range s {
				if x > v && x < above {
					above = x
				}
			}
		}
	}
	return below, above, pos - float64(lo)
}

// materialize returns the series n copies of v followed by xs.
func materialize(v float64, n int, xs []float64) []float64 {
	out := make([]float64, n+len(xs))
	for i := range n {
		out[i] = v
	}
	copy(out[n:], xs)
	return out
}
