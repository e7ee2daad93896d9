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

// ErrDegenerate is returned when a sample is too small or has no variance,
// so no Gamma can be fit.
var ErrDegenerate = errors.New("stats: degenerate sample for gamma fit")

// FitGammaMoments fits Gamma parameters by the method of moments,
// α = mean²/var and β = var/mean, to a sample of zeros zero counts followed
// by sample: a detector's empty cells ahead of a stream segment are a count,
// not cells. This is the estimator used in the multiresolution Gamma
// detector, where speed over thousands of sketch bins matters more than
// statistical efficiency.
func FitGammaMoments(zeros int, sample []float64) (GammaParams, error) {
	if zeros+len(sample) < 2 {
		return GammaParams{}, ErrDegenerate
	}
	m, v := MeanVarRun(0, zeros, sample)
	if m <= 0 || v <= 0 {
		return GammaParams{}, ErrDegenerate
	}
	return GammaParams{Alpha: float64(m*m) / v, Beta: v / m}, nil
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
