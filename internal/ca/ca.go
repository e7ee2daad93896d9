// Package ca implements correspondence analysis (Benzécri 1992), the
// dimensionality-reduction technique behind the SCANN combination strategy
// (Merz 1999). Given a non-negative contingency table it returns the row
// principal coordinates in the reduced space, where SCANN measures the
// distance of each community to two unanimous reference points.
//
// CA is PCA for categorical data: the table is converted to a
// correspondence matrix, centered by the independence model r·cᵀ, scaled to
// standardized residuals and factored by SVD. Constant columns — a
// detector configuration that always votes the same way — produce zero
// residual everywhere and therefore do not influence the reduced space,
// which is precisely the property the paper exploits to sideline irrelevant
// detectors.
package ca

import (
	"errors"
	"fmt"
	"math"

	"mawilab/internal/linalg"
)

// Result holds the output of Analyze.
type Result struct {
	// RowCoords has one row per input row with K columns: the row
	// principal coordinates along the retained axes.
	RowCoords *linalg.Matrix
	// Singular holds the retained singular values (descending).
	Singular []float64
	// Inertia is the total inertia (sum of squared singular values, i.e.
	// the chi-square statistic of the table divided by its grand total).
	Inertia float64

	// Projection data for supplementary rows.
	keep    []int          // original indices of retained (positive-mass) columns
	colMass []float64      // masses of retained columns
	v       *linalg.Matrix // right singular vectors over retained columns (keep × K)
}

// Errors returned by Analyze.
var (
	ErrEmptyTable    = errors.New("ca: empty table")
	ErrNegativeEntry = errors.New("ca: negative table entry")
	// ErrNonFiniteEntry is returned wrapped, naming the first NaN or ±Inf
	// entry.
	ErrNonFiniteEntry = errors.New("ca: non-finite table entry")
	ErrZeroTotal      = errors.New("ca: table sums to zero")
)

// Analyze runs correspondence analysis on a non-negative table and keeps at
// most maxDims axes (all meaningful axes when maxDims ≤ 0). Axes whose
// singular value is below 1e-7 times the largest are dropped as noise; rows
// with zero mass receive zero coordinates.
func Analyze(table *linalg.Matrix, maxDims int) (*Result, error) {
	nr, nc := table.Rows, table.Cols
	if nr == 0 || nc == 0 {
		return nil, ErrEmptyTable
	}
	total := 0.0
	for i, v := range table.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w %g at (%d,%d)", ErrNonFiniteEntry, v, i/nc, i%nc)
		}
		if v < 0 {
			return nil, ErrNegativeEntry
		}
		total += v
	}
	if total == 0 {
		return nil, ErrZeroTotal
	}

	// Row and column masses of the correspondence matrix P = table/total.
	rowMass := make([]float64, nr)
	colMass := make([]float64, nc)
	for i := 0; i < nr; i++ {
		row := table.Row(i)
		for j, v := range row {
			p := v / total
			rowMass[i] += p
			colMass[j] += p
		}
	}

	// Keep only columns with positive mass; zero-mass columns carry no
	// information and would divide by zero.
	keep := make([]int, 0, nc)
	for j := 0; j < nc; j++ {
		if colMass[j] > 0 {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return nil, ErrZeroTotal
	}

	// Standardized residuals S_ij = (P_ij − r_i c_j) / √(r_i c_j).
	// Zero-mass rows contribute zero rows (no residual).
	s := linalg.NewMatrix(nr, len(keep))
	for i := 0; i < nr; i++ {
		if rowMass[i] == 0 {
			continue
		}
		row := table.Row(i)
		for jj, j := range keep {
			p := row[j] / total
			expected := float64(rowMass[i] * colMass[j])
			s.Set(i, jj, (p-expected)/math.Sqrt(expected))
		}
	}

	// Thin SVD. The CA matrix is rows ≥ cols in every SCANN use; fall back
	// to the transpose otherwise.
	var u, v *linalg.Matrix
	var sigma []float64
	var err error
	if s.Rows >= s.Cols {
		u, sigma, v, err = linalg.SVDThin(s, 0)
	} else {
		v, sigma, u, err = linalg.SVDThin(s.T(), 0)
	}
	if err != nil {
		return nil, err
	}

	// Drop numerically-zero axes.
	k := 0
	for _, sv := range sigma {
		if len(sigma) > 0 && sv > 1e-7*sigma[0] && sv > 1e-12 {
			k++
		} else {
			break
		}
	}
	if maxDims > 0 && k > maxDims {
		k = maxDims
	}

	inertia := 0.0
	for _, sv := range sigma {
		inertia += float64(sv * sv)
	}

	// Row principal coordinates F = D_r^{-1/2} U Σ.
	coords := linalg.NewMatrix(nr, k)
	for i := 0; i < nr; i++ {
		if rowMass[i] == 0 {
			continue
		}
		inv := 1 / math.Sqrt(rowMass[i])
		for j := 0; j < k; j++ {
			coords.Set(i, j, inv*u.At(i, j)*sigma[j])
		}
	}
	keptMass := make([]float64, len(keep))
	for jj, j := range keep {
		keptMass[jj] = colMass[j]
	}
	vk := linalg.NewMatrix(len(keep), k)
	for i := 0; i < len(keep); i++ {
		for j := 0; j < k; j++ {
			vk.Set(i, j, v.At(i, j))
		}
	}
	return &Result{
		RowCoords: coords, Singular: sigma[:k], Inertia: inertia,
		keep: keep, colMass: keptMass, v: vk,
	}, nil
}

// ProjectRow maps a supplementary row (given over the *original* table
// columns, non-negative) into the principal space without it having
// influenced the factorization. This is how SCANN places its two unanimous
// reference points. The transition formula for a supplementary profile q
// is f_k = Σ_j q_j · V_jk / √c_j.
//
// Entries on columns that were dropped (zero mass in the analyzed table)
// are ignored; the remaining profile is renormalized. A row with no mass on
// retained columns projects to the origin.
func (r *Result) ProjectRow(raw []float64) []float64 {
	k := len(r.Singular)
	coords := make([]float64, k)
	total := 0.0
	for _, j := range r.keep {
		if j < len(raw) {
			total += raw[j]
		}
	}
	if total == 0 {
		return coords
	}
	for jj, j := range r.keep {
		if j >= len(raw) || raw[j] == 0 {
			continue
		}
		q := raw[j] / total
		scale := q / math.Sqrt(r.colMass[jj])
		for a := 0; a < k; a++ {
			coords[a] += float64(scale * r.v.At(jj, a))
		}
	}
	return coords
}

// Distance returns the Euclidean distance between two coordinate vectors of
// equal length (as returned by ProjectRow or rows of RowCoords).
func Distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}
