package stats

import (
	"errors"
	"math"
)

// GammaParams holds the shape (Alpha) and scale (Beta) of a Gamma
// distribution, the model Dewaele et al. fit to per-sketch packet counts.
type GammaParams struct {
	Alpha float64 // shape
	Beta  float64 // scale
}

// Mean returns α·β.
func (g GammaParams) Mean() float64 { return g.Alpha * g.Beta }

// ErrDegenerate is returned when a sample is too small or has no variance,
// so no Gamma can be fit.
var ErrDegenerate = errors.New("stats: degenerate sample for gamma fit")

// FitGammaMoments fits Gamma parameters by the method of moments:
// α = mean²/var, β = var/mean. This is the estimator used in the
// multiresolution Gamma detector, where speed over thousands of sketch bins
// matters more than statistical efficiency.
func FitGammaMoments(sample []float64) (GammaParams, error) {
	if len(sample) < 2 {
		return GammaParams{}, ErrDegenerate
	}
	m, v := MeanVar(sample)
	if m <= 0 || v <= 0 {
		return GammaParams{}, ErrDegenerate
	}
	return GammaParams{Alpha: m * m / v, Beta: v / m}, nil
}

// Digamma computes ψ(x), the logarithmic derivative of the Gamma function,
// by upward recurrence into the asymptotic region.
func Digamma(x float64) float64 {
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion.
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2/240)))
	return result
}

// Trigamma computes ψ'(x) by upward recurrence into the asymptotic region.
func Trigamma(x float64) float64 {
	result := 0.0
	for x < 6 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	result += inv * (1 + 0.5*inv + inv2*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2/30))))
	return result
}

// GammaDistance is the normalized parameter-space distance used by the
// Gamma detector to compare a sketch bin's fit against the adaptive
// reference: |Δα|/σα + |Δβ|/σβ. The scales σ must be positive; callers
// typically use a robust spread (MAD) across bins.
func GammaDistance(g, ref GammaParams, alphaScale, betaScale float64) float64 {
	if alphaScale <= 0 {
		alphaScale = 1
	}
	if betaScale <= 0 {
		betaScale = 1
	}
	return math.Abs(g.Alpha-ref.Alpha)/alphaScale + math.Abs(g.Beta-ref.Beta)/betaScale
}
