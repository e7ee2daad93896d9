package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sampleGamma draws from Gamma(alpha, beta) using Marsaglia-Tsang.
func sampleGamma(rng *rand.Rand, alpha, beta float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		return sampleGamma(rng, alpha+1, beta) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * beta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * beta
		}
	}
}

func TestFitGammaMomentsRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, want := range []GammaParams{{2, 3}, {0.5, 10}, {8, 0.25}} {
		sample := make([]float64, 20000)
		for i := range sample {
			sample[i] = sampleGamma(rng, want.Alpha, want.Beta)
		}
		got, err := FitGammaMoments(0, sample)
		if err != nil {
			t.Fatalf("fit(%+v): %v", want, err)
		}
		if math.Abs(got.Alpha-want.Alpha) > 0.25*want.Alpha {
			t.Errorf("alpha = %f, want ~%f", got.Alpha, want.Alpha)
		}
		if math.Abs(got.Beta-want.Beta) > 0.25*want.Beta {
			t.Errorf("beta = %f, want ~%f", got.Beta, want.Beta)
		}
	}
}

func TestFitGammaDegenerate(t *testing.T) {
	if _, err := FitGammaMoments(0, nil); err != ErrDegenerate {
		t.Errorf("nil sample: err = %v", err)
	}
	if _, err := FitGammaMoments(0, []float64{5}); err != ErrDegenerate {
		t.Errorf("singleton: err = %v", err)
	}
	if _, err := FitGammaMoments(0, []float64{0, 0, 0}); err != ErrDegenerate {
		t.Errorf("all-zero: err = %v", err)
	}
}

func TestGammaDistance(t *testing.T) {
	ref := GammaParams{Alpha: 2, Beta: 3}
	same := GammaDistance(ref, ref, 1, 1)
	if same != 0 {
		t.Errorf("distance to self = %f", same)
	}
	far := GammaDistance(GammaParams{Alpha: 4, Beta: 3}, ref, 1, 1)
	if far != 2 {
		t.Errorf("distance = %f, want 2", far)
	}
	// Zero scales must not divide by zero.
	if d := GammaDistance(GammaParams{3, 3}, ref, 0, 0); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("zero-scale distance = %f", d)
	}
}
