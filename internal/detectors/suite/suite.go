// Package suite assembles the paper's four-detector ensemble with its
// twelve configurations (4 detectors × 3 tunings), ready to feed the
// similarity estimator.
package suite

import (
	"mawilab/internal/detectors"
	"mawilab/internal/detectors/gammafit"
	"mawilab/internal/detectors/hough"
	"mawilab/internal/detectors/klhist"
	"mawilab/internal/detectors/pca"
)

// Standard returns the paper's ensemble: PCA, Gamma, Hough and KL, each
// with three parameter sets.
func Standard() []detectors.Detector {
	return []detectors.Detector{pca.New(), gammafit.New(), hough.New(), klhist.New()}
}
