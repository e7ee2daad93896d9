package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median returns the middle sample (the mean of the two middle ones for an
// even count), 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of the
// ascending samples s: the smallest sample with at least q of the samples at
// or below it. No interpolation, so the result is always an observed value.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailLevels are the percentiles a summary may report, ascending, in
// thousandths so that "ten samples beyond" is integer arithmetic.
var tailLevels = []int{900, 950, 990, 999}

// supportedTail returns the highest of tailLevels with at least ten samples
// beyond it, or 0 when even the lowest has fewer: a percentile resting on a
// handful of samples is an anecdote, not a measurement.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLevels {
		if n*(1000-q) >= 10*1000 {
			best = float64(q) / 1000
		}
	}
	return best
}

// summary is the one-line description of a latency sample set.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailQ is the highest percentile the sample count supports (0 = none)
	// and Tail its value.
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func summarize(v []float64) summary {
	s := sorted(v)
	out := summary{N: len(s), Median: median(s)}
	if q := supportedTail(len(s)); q > 0 {
		out.TailQ, out.Tail = q, percentile(s, q)
	}
	return out
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the default exclusive method), so
// -repeat reproduces the acceptance computation of the benchmark contract.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median — the
// run-to-run noise a bound is compared against. Quartiles of two or three
// values are extrapolations beyond the data, so there the plain range stands
// in for them.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := quartiles(v)
	if len(v) < 4 {
		s := sorted(v)
		lo, hi = s[0], s[len(s)-1]
	}
	return (hi - lo) / math.Abs(m)
}
