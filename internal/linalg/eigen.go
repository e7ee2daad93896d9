package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns eigenvalues in descending order and
// the matching orthonormal eigenvectors as the columns of V.
//
// The rotations run on row slices of the working copy's backing array (the
// column step strides through it), and the eigenvectors accumulate
// transposed, so that a rotation touches two contiguous rows. The working
// copy drifts bitwise-asymmetric inside each rotated 2×2 block (the column
// step and the row step both pass over it), and later rotations read both
// triangles, so the column step and the row step are both kept: every
// floating-point operation and its order are those of the accessor-based
// solver in eigen_ref_test.go, which TestEigenSymBitIdentical holds this
// one to.
func EigenSym(a *Matrix) (values []float64, v *Matrix, err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym needs square matrix, got %dx%d", a.Rows, a.Cols)
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
	w := make([]float64, n*n)
	copy(w, a.Data)
	// vt holds the eigenvectors as rows: row p is column p of V.
	vt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		vt[i*n+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range w[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			wp := w[p*n : (p+1)*n]
			vp := vt[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				apq := wp[q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				wq := w[q*n : (q+1)*n]
				theta := (wq[q] - wp[p]) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ) on both sides of w: columns p
				// and q, then rows p and q.
				for kp, kq := p, q; kq < len(w); kp, kq = kp+n, kq+n {
					akp, akq := w[kp], w[kq]
					w[kp] = c*akp - s*akq
					w[kq] = s*akp + c*akq
				}
				for k, apk := range wp {
					aqk := wq[k]
					wp[k] = c*apk - s*aqk
					wq[k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				vq := vt[q*n : (q+1)*n]
				for k, vkp := range vp {
					vkq := vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w[i*n+i]
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return values[order[x]] > values[order[y]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range order {
		sortedVals[newCol] = values[oldCol]
		for r, x := range vt[oldCol*n : (oldCol+1)*n] {
			sortedVecs.Data[r*n+newCol] = x
		}
	}
	return sortedVals, sortedVecs, nil
}

// SVDThin computes a thin singular value decomposition A = U Σ Vᵀ for a
// matrix with Rows ≥ Cols, via the eigendecomposition of AᵀA. Singular
// values come back in descending order; U is Rows×k, V is Cols×k, where k
// is the number of singular values above rankTol·σ₁ (all Cols when
// rankTol ≤ 0).
//
// Because σ is recovered as √λ of the Gram matrix, its numerical noise
// floor is about √eps·σ₁ ≈ 1e-8·σ₁; rankTol below ~1e-7 cannot reliably
// separate noise from signal.
func SVDThin(a *Matrix, rankTol float64) (u *Matrix, sigma []float64, v *Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, nil, fmt.Errorf("linalg: SVDThin needs rows ≥ cols, got %dx%d", a.Rows, a.Cols)
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
