package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVar(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v := MeanVar(xs)
	if m != 5 {
		t.Errorf("mean = %f, want 5", m)
	}
	want := 32.0 / 7.0 // unbiased
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("var = %f, want %f", v, want)
	}
	if s := Std(xs); math.Abs(s-math.Sqrt(want)) > 1e-12 {
		t.Errorf("std = %f", s)
	}
}

func TestMeanVarEdge(t *testing.T) {
	if m, v := MeanVar(nil); m != 0 || v != 0 {
		t.Error("empty MeanVar should be 0,0")
	}
	if m, v := MeanVar([]float64{3}); m != 3 || v != 0 {
		t.Error("singleton MeanVar should be x,0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %f, want %f", c.q, got, c.want)
		}
	}
	if Median([]float64{1, 3}) != 2 {
		t.Error("median of {1,3} should interpolate to 2")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if !sort.Float64sAreSorted(xs) && (xs[0] != 5 || xs[1] != 1 || xs[2] != 3) {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, |x-2| = {1,1,0,0,2,4,7}, median = 1
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %f, want 1", got)
	}
	if MAD(nil) != 0 {
		t.Error("MAD of empty should be 0")
	}
}
