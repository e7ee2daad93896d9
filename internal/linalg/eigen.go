package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix by
// Householder reduction to tridiagonal form followed by the implicit QL
// algorithm: EISPACK's tred2 and tql2 (Bowdler, Martin, Reinsch and
// Wilkinson, Handbook for Automatic Computation vol. II), as published in
// JAMA. It returns eigenvalues in descending order, ties in the order QL
// leaves them, and the matching orthonormal eigenvectors as the columns of
// V.
//
// The input must be square, finite and symmetric within a relative 1e-8;
// anything else is an error before any work, naming the first offending
// entry. The solver reads the lower triangle.
//
// The work runs on one flat n×n slice that holds the transpose of the
// textbook's working matrix, so that every inner loop of both stages — the
// Householder updates, the accumulation of the transformations and the QL
// rotations — walks a contiguous row. Storage is the only difference: every
// floating-point operation and its order are those of the textbook solver
// in eigen_ref_test.go, which TestEigenSymBitIdentical holds this one to.
func EigenSym(a *Matrix) (values []float64, v *Matrix, err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := checkFinite("EigenSym", a); err != nil {
		return nil, nil, err
	}
	// Verify symmetry within tolerance.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			aij, aji := a.Data[i*n+j], a.Data[j*n+i]
			d := math.Abs(aij - aji)
			scale := math.Max(math.Abs(aij), math.Abs(aji))
			if d > 1e-8*(1+scale) {
				return nil, nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d): %g vs %g", i, j, aij, aji)
			}
		}
	}
	if n == 0 {
		return []float64{}, NewMatrix(0, 0), nil
	}
	// w[c*n+r] is the textbook's V[r][c]: row c of w is column c of V, and
	// at the end row c is the eigenvector of d[c].
	w := make([]float64, n*n+2*n)
	d, e := w[n*n:n*n+n], w[n*n+n:]
	w = w[:n*n]
	for r := 0; r < n; r++ {
		for c, x := range a.Data[r*n : (r+1)*n] {
			w[c*n+r] = x
		}
	}
	tred2(w, d, e, n)
	if err := tql2(w, d, e, n); err != nil {
		return nil, nil, err
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return d[order[x]] > d[order[y]] })
	values = make([]float64, n)
	v = NewMatrix(n, n)
	for newCol, oldCol := range order {
		values[newCol] = d[oldCol]
		for r, x := range w[oldCol*n : (oldCol+1)*n] {
			v.Data[r*n+newCol] = x
		}
	}
	return values, v, nil
}

// checkFinite returns an error naming the first NaN or ±Inf entry of m, in
// row-major order.
func checkFinite(op string, m *Matrix) error {
	for i, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: %s needs finite entries, got %g at (%d,%d)", op, x, i/m.Cols, i%m.Cols)
		}
	}
	return nil
}

// tred2 reduces the symmetric matrix held (transposed) in w to tridiagonal
// form by Householder similarity transformations and accumulates them:
// on return d is the diagonal, e[1:] the subdiagonal, and w the transposed
// orthogonal transformation.
func tred2(w, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := range d[:i] {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			clear(e[:i])
			// Apply the similarity transformation to the remaining
			// columns.
			for j := 0; j < i; j++ {
				wj := w[j*n : j*n+i]
				f = d[j]
				w[i*n+j] = f
				g = e[j] + wj[j]*f
				for k := j + 1; k < i; k++ {
					g += wj[k] * d[k]
					e[k] += wj[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				wj := w[j*n : j*n+i]
				f, g = d[j], e[j]
				for k := j; k < i; k++ {
					wj[k] -= f*e[k] + g*d[k]
				}
				d[j] = wj[i-1]
				w[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		wi, wi1 := w[i*n:(i+1)*n], w[(i+1)*n:(i+2)*n]
		wi[n-1] = wi[i]
		wi[i] = 1
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = wi1[k] / h
			}
			for j := 0; j <= i; j++ {
				wj := w[j*n : j*n+i+1]
				g := 0.0
				for k, x := range wj {
					g += wi1[k] * x
				}
				for k := range wj {
					wj[k] -= g * d[k]
				}
			}
		}
		clear(wi1[:i+1])
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of the tridiagonal matrix
// tred2 left in d and e by the implicit QL method, rotating the rows of w:
// on return d holds the eigenvalues, unordered, and row c of w the
// eigenvector of d[c]. An eigenvalue that takes more than 30 iterations is
// an error, as in EISPACK; finite input converges long before.
func tql2(w, d, e []float64, n int) error {
	copy(e, e[1:])
	e[n-1] = 0
	// The one departure from the textbook, which starts tst1 at zero: a
	// subdiagonal entry is negligible against the norm of the whole
	// tridiagonal matrix, not against the leading rows seen so far. A
	// rank-deficient input can reduce to a matrix whose leading entries
	// are subnormal; judged against those alone, QL would rotate by angles
	// computed from a few bits of mantissa and lose orthogonality.
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
	}
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == 30 {
				return fmt.Errorf("linalg: EigenSym: eigenvalue %d did not converge in 30 iterations", l)
			}
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the transformation.
				wi, wi1 := w[i*n:(i+1)*n], w[(i+1)*n:(i+2)*n]
				for k, x := range wi {
					y := wi1[k]
					wi1[k] = s*x + c*y
					wi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			// Check for convergence.
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// SVDThin computes a thin singular value decomposition A = U Σ Vᵀ for a
// matrix with Rows ≥ Cols, via the eigendecomposition of AᵀA. Singular
// values come back in descending order; U is Rows×k, V is Cols×k, where k
// is the number of singular values above rankTol·σ₁ (all Cols when
// rankTol ≤ 0).
//
// A non-finite entry is an error naming it, before the Gram is formed.
//
// Because σ is recovered as √λ of the Gram matrix, its numerical noise
// floor is about √eps·σ₁ ≈ 1e-8·σ₁; rankTol below ~1e-7 cannot reliably
// separate noise from signal.
func SVDThin(a *Matrix, rankTol float64) (u *Matrix, sigma []float64, v *Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, nil, fmt.Errorf("linalg: SVDThin needs rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if err := checkFinite("SVDThin", a); err != nil {
		return nil, nil, nil, err
	}
	g := a.Gram()
	evals, evecs, err := EigenSym(g)
	if err != nil {
		return nil, nil, nil, err
	}
	n := a.Cols
	all := make([]float64, n)
	for i, l := range evals {
		if l < 0 {
			l = 0 // numerical noise
		}
		all[i] = math.Sqrt(l)
	}
	k := n
	if rankTol > 0 && n > 0 {
		cut := rankTol * all[0]
		k = 0
		for _, s := range all {
			if s > cut {
				k++
			}
		}
		if k == 0 && all[0] > 0 {
			k = 1
		}
	}
	sigma = all[:k]
	v = NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			v.Set(i, j, evecs.At(i, j))
		}
	}
	// U = A V Σ⁻¹ column by column.
	u = NewMatrix(a.Rows, k)
	for j := 0; j < k; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = v.At(i, j)
		}
		av := a.MulVec(col)
		if sigma[j] > 0 {
			Scale(av, 1/sigma[j])
		}
		for i := 0; i < a.Rows; i++ {
			u.Set(i, j, av[i])
		}
	}
	return u, sigma, v, nil
}
