package linalg

// This file keeps the accessor-based cyclic Jacobi that EigenSym used to be,
// verbatim, as the bit-for-bit reference: the flat solver must return the
// same eigenvalues and eigenvectors down to math.Float64bits, because SCANN's
// score reaches the ADMD output at full precision through ca.Analyze and
// PCA's alarms depend on every bit of the components.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEigenSym is the pre-flattening EigenSym, unchanged.
func refEigenSym(a *Matrix) (values []float64, v *Matrix, err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	// Verify symmetry within tolerance.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Abs(a.At(i, j) - a.At(j, i))
			scale := math.Max(math.Abs(a.At(i, j)), math.Abs(a.At(j, i)))
			if d > 1e-8*(1+scale) {
				return nil, nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	w := a.Clone()
	v = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ) on both sides of w.
				for k := 0; k < n; k++ {
					akp := w.At(k, p)
					akq := w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := w.At(p, k)
					aqk := w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
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
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// randomGram returns the cols×cols Gram matrix of a random rows×cols matrix
// whose columns are centred: symmetric by construction, and of rank at most
// min(rows-1, cols) — rows ≤ cols gives the rank-deficient covariance a
// short sealed segment produces.
func randomGram(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Floor(rng.ExpFloat64() * 4)
	}
	m.CenterColumns()
	return m.Gram()
}

// TestEigenSymBitIdentical holds the flat solver to the reference bit for
// bit: eigenvalues and every eigenvector entry compared by math.Float64bits
// on random Grams of order 1 to 48, full-rank and rank-deficient, and the
// same error on an asymmetric and on a non-square input.
func TestEigenSymBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := 0
	for _, n := range []int{1, 2, 3, 5, 8, 13, 24, 32, 48} {
		for _, rows := range []int{1, 2, n / 2, n - 1, n, 15, 60, 3 * n} {
			if rows < 1 {
				continue
			}
			g := randomGram(rng, rows, n)
			wantVals, wantVecs, wantErr := refEigenSym(g)
			vals, vecs, err := EigenSym(g)
			if err != nil || wantErr != nil {
				t.Fatalf("n=%d rows=%d: errors %v / %v", n, rows, err, wantErr)
			}
			for i := range wantVals {
				if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("n=%d rows=%d: eigenvalue %d = %x, reference %x", n, rows, i, math.Float64bits(vals[i]), math.Float64bits(wantVals[i]))
				}
			}
			if vecs.Rows != n || vecs.Cols != n {
				t.Fatalf("n=%d rows=%d: eigenvectors are %dx%d", n, rows, vecs.Rows, vecs.Cols)
			}
			for i := range wantVecs.Data {
				if math.Float64bits(vecs.Data[i]) != math.Float64bits(wantVecs.Data[i]) {
					t.Fatalf("n=%d rows=%d: eigenvector entry (%d,%d) = %x, reference %x", n, rows, i/n, i%n, math.Float64bits(vecs.Data[i]), math.Float64bits(wantVecs.Data[i]))
				}
			}
			cases++
		}
	}
	if cases < 60 {
		t.Fatalf("only %d Grams compared", cases)
	}
	for _, bad := range []*Matrix{FromRows([][]float64{{1, 2}, {3, 4}}), NewMatrix(2, 3)} {
		_, _, err := EigenSym(bad)
		_, _, wantErr := refEigenSym(bad)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%v: error %v, reference %v", bad, err, wantErr)
		}
	}
}
