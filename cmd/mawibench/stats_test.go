package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	s := summarize(v)
	if s.N != 200 || s.Median != 100.5 || s.TailQ != 0.95 || s.Tail != 190 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
	if s := summarize(v[:50]); s.TailQ != 0 || s.Tail != 0 {
		t.Errorf("50 samples must not support a tail: %+v", s)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{9, 11}); !near(got, 0.2) {
		t.Errorf("spread of two values = %v, want their range over their median, 0.2", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v", got)
	}
}
