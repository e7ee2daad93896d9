package linalg

// This file keeps two references for EigenSym.
//
// refTextbookEigenSym is EISPACK's tred2/tql2 as published in JAMA, verbatim
// on [][]float64 and in the textbook's storage order. It is the bit-for-bit
// reference: EigenSym runs the same floating-point operations in the same
// order on a transposed flat slice, and must return the same eigenvalues and
// eigenvectors down to math.Float64bits, because SCANN's score reaches the
// ADMD output at full precision through ca.Analyze and PCA's alarms depend
// on every bit of the components.
//
// refEigenSym is the cyclic Jacobi that EigenSym was before, kept as the
// accuracy reference: an independent algorithm the QL solver must agree
// with to within the bounds of TestEigenSymMatchesJacobi.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refTextbookEigenSym is JAMA's EigenvalueDecomposition for a symmetric
// matrix (tred2, then tql2), with the same input checks as EigenSym, JAMA's
// hypot replaced by math.Hypot, EISPACK's 30-iteration bound, tql2's
// negligibility test against the whole tridiagonal matrix (see tql2 in
// eigen.go), and EigenSym's stable descending sort in place of JAMA's
// ascending selection sort.
func refTextbookEigenSym(a *Matrix) (values []float64, vecs *Matrix, err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if x := a.At(i, j); math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, nil, fmt.Errorf("linalg: EigenSym needs finite entries, got %g at (%d,%d)", x, i, j)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Abs(a.At(i, j) - a.At(j, i))
			scale := math.Max(math.Abs(a.At(i, j)), math.Abs(a.At(j, i)))
			if d > 1e-8*(1+scale) {
				return nil, nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	if n == 0 {
		return []float64{}, NewMatrix(0, 0), nil
	}
	V := make([][]float64, n)
	for i := range V {
		V[i] = make([]float64, n)
		for j := range V[i] {
			V[i][j] = a.At(i, j)
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(n, V, d, e)
	if err := refTql2(n, V, d, e); err != nil {
		return nil, nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return d[order[x]] > d[order[y]] })
	values = make([]float64, n)
	vecs = NewMatrix(n, n)
	for newCol, oldCol := range order {
		values[newCol] = d[oldCol]
		for r := 0; r < n; r++ {
			vecs.Set(r, newCol, V[r][oldCol])
		}
	}
	return values, vecs, nil
}

// refTred2 is JAMA's tred2: symmetric Householder reduction to tridiagonal
// form, derived from the Algol procedure tred2 by Bowdler, Martin, Reinsch
// and Wilkinson and the corresponding EISPACK routine.
func refTred2(n int, V [][]float64, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = V[n-1][j]
	}

	// Householder reduction to tridiagonal form.
	for i := n - 1; i > 0; i-- {

		// Scale to avoid under/overflow.
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale = scale + math.Abs(d[k])
		}
		if scale == 0.0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = V[i-1][j]
				V[i][j] = 0.0
				V[j][i] = 0.0
			}
		} else {

			// Generate Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h = h - f*g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0.0
			}

			// Apply similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				V[j][i] = f
				g = e[j] + V[j][j]*f
				for k := j + 1; k <= i-1; k++ {
					g += V[k][j] * d[k]
					e[k] += V[k][j] * f
				}
				e[j] = g
			}
			f = 0.0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					V[k][j] -= (f*e[k] + g*d[k])
				}
				d[j] = V[i-1][j]
				V[i][j] = 0.0
			}
		}
		d[i] = h
	}

	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		V[n-1][i] = V[i][i]
		V[i][i] = 1.0
		h := d[i+1]
		if h != 0.0 {
			for k := 0; k <= i; k++ {
				d[k] = V[k][i+1] / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += V[k][i+1] * V[k][j]
				}
				for k := 0; k <= i; k++ {
					V[k][j] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			V[k][i+1] = 0.0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = V[n-1][j]
		V[n-1][j] = 0.0
	}
	V[n-1][n-1] = 1.0
	e[0] = 0.0
}

// refTql2 is JAMA's tql2: the symmetric tridiagonal QL algorithm, derived
// from the Algol procedure tql2 by Bowdler, Martin, Reinsch and Wilkinson
// and the corresponding EISPACK routine, with EISPACK's iteration bound and
// tst1 starting at the norm of the tridiagonal matrix.
func refTql2(n int, V [][]float64, d, e []float64) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0

	f := 0.0
	tst1 := 0.0
	for l := 0; l < n; l++ { // not in the textbook: see tql2
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
	}
	eps := math.Pow(2.0, -52.0)
	for l := 0; l < n; l++ {

		// Find small subdiagonal element
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}

		// If m == l, d[l] is an eigenvalue,
		// otherwise, iterate.
		if m > l {
			iter := 0
			for {
				if iter == 30 {
					return fmt.Errorf("linalg: EigenSym: eigenvalue %d did not converge in 30 iterations", l)
				}
				iter = iter + 1

				// Compute implicit shift
				g := d[l]
				p := (d[l+1] - g) / (2.0 * e[l])
				r := math.Hypot(p, 1.0)
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
				f = f + h

				// Implicit QL transformation.
				p = d[m]
				c := 1.0
				c2 := c
				c3 := c
				el1 := e[l+1]
				s := 0.0
				s2 := 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate transformation.
					for k := 0; k < n; k++ {
						h = V[k][i+1]
						V[k][i+1] = s*V[k][i] + c*h
						V[k][i] = c*V[k][i] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				// Check for convergence.
				if !(math.Abs(e[l]) > eps*tst1) {
					break
				}
			}
		}
		d[l] = d[l] + f
		e[l] = 0.0
	}
	return nil
}

// refEigenSym is the accessor-based cyclic Jacobi EigenSym used to be,
// unchanged.
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
	centerColumns(m)
	return m.Gram()
}

// centerColumns subtracts each column's mean from it, in place.
func centerColumns(m *Matrix) {
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			sum += m.At(i, j)
		}
		mean := sum / float64(m.Rows)
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, m.At(i, j)-mean)
		}
	}
}

// eigenTestGrams returns the Gram set the reference tests compare over:
// random Grams of order 1 to 48, full-rank and rank-deficient.
func eigenTestGrams() []*Matrix {
	rng := rand.New(rand.NewSource(19))
	var grams []*Matrix
	for _, n := range []int{1, 2, 3, 5, 8, 13, 24, 32, 48} {
		for _, rows := range []int{1, 2, n / 2, n - 1, n, 15, 60, 3 * n} {
			if rows >= 1 {
				grams = append(grams, randomGram(rng, rows, n))
			}
		}
	}
	return grams
}

// TestEigenSymBitIdentical holds the flat solver to the textbook reference
// bit for bit: eigenvalues and every eigenvector entry compared by
// math.Float64bits over the Gram set, and the same error on an asymmetric, a
// non-square and a non-finite input.
func TestEigenSymBitIdentical(t *testing.T) {
	grams := eigenTestGrams()
	if len(grams) < 60 {
		t.Fatalf("only %d Grams", len(grams))
	}
	for _, g := range grams {
		n := g.Rows
		wantVals, wantVecs, wantErr := refTextbookEigenSym(g)
		vals, vecs, err := EigenSym(g)
		if err != nil || wantErr != nil {
			t.Fatalf("n=%d: errors %v / %v", n, err, wantErr)
		}
		for i := range wantVals {
			if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("n=%d: eigenvalue %d = %x, reference %x", n, i, math.Float64bits(vals[i]), math.Float64bits(wantVals[i]))
			}
		}
		if vecs.Rows != n || vecs.Cols != n {
			t.Fatalf("n=%d: eigenvectors are %dx%d", n, vecs.Rows, vecs.Cols)
		}
		for i := range wantVecs.Data {
			if math.Float64bits(vecs.Data[i]) != math.Float64bits(wantVecs.Data[i]) {
				t.Fatalf("n=%d: eigenvector entry (%d,%d) = %x, reference %x", n, i/n, i%n, math.Float64bits(vecs.Data[i]), math.Float64bits(wantVecs.Data[i]))
			}
		}
	}
	nonFinite := NewMatrix(3, 3)
	nonFinite.Set(2, 1, math.NaN())
	for _, bad := range []*Matrix{FromRows([][]float64{{1, 2}, {3, 4}}), NewMatrix(2, 3), nonFinite} {
		_, _, err := EigenSym(bad)
		_, _, wantErr := refTextbookEigenSym(bad)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%v: error %v, reference %v", bad, err, wantErr)
		}
	}
}

// eigenBounds are the accuracy bounds EigenSym is held to against the
// Jacobi reference.
const (
	eigenValueTol     = 1e-12 // |λ − λ_ref|, relative to the largest |λ|
	eigenResidualTol  = 1e-12 // ‖Av − λv‖₂, relative to the largest |λ|
	eigenOrthoTol     = 1e-12 // max |VᵀV − I|
	eigenProjectorTol = 1e-10 // max |P_k − P_k,ref| of the top-k projector
	eigenGapTol       = 1e-6  // relative eigengap below which P_k is not compared
)

// checkEigen holds one decomposition of a to the properties every caller
// relies on — descending eigenvalues, A·v = λ·v, orthonormal V — and to the
// Jacobi reference's eigenvalues and top-k projectors (k = 2, 3, 4, where
// the eigengap at k makes the projector well defined).
func checkEigen(t *testing.T, a *Matrix, vals []float64, vecs *Matrix, compareProjectors bool) {
	t.Helper()
	n := a.Rows
	refVals, refVecs, err := refEigenSym(a)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	norm := 0.0
	for i := range vals {
		norm = math.Max(norm, math.Max(math.Abs(vals[i]), math.Abs(refVals[i])))
	}
	if norm == 0 {
		norm = 1
	}
	for i := range vals {
		if i > 0 && vals[i] > vals[i-1] {
			t.Fatalf("n=%d: eigenvalues not descending at %d: %v", n, i, vals)
		}
		if d := math.Abs(vals[i]-refVals[i]) / norm; d > eigenValueTol {
			t.Fatalf("n=%d: eigenvalue %d = %v, Jacobi %v (relative %.3g)", n, i, vals[i], refVals[i], d)
		}
	}
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = vecs.At(i, j)
		}
		av := a.MulVec(col)
		res := 0.0
		for i := range av {
			r := av[i] - vals[j]*col[i]
			res += r * r
		}
		if r := math.Sqrt(res) / norm; r > eigenResidualTol {
			t.Fatalf("n=%d: residual of pair %d is %.3g", n, j, r)
		}
		for k := j; k < n; k++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += vecs.At(i, j) * vecs.At(i, k)
			}
			if j == k {
				dot--
			}
			if math.Abs(dot) > eigenOrthoTol {
				t.Fatalf("n=%d: (VᵀV − I)[%d,%d] = %.3g", n, j, k, dot)
			}
		}
	}
	if !compareProjectors {
		return
	}
	for _, k := range []int{2, 3, 4} {
		if k >= n || refVals[k-1]-refVals[k] <= eigenGapTol*norm {
			continue
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				p, q := 0.0, 0.0
				for i := 0; i < k; i++ {
					p += vecs.At(r, i) * vecs.At(c, i)
					q += refVecs.At(r, i) * refVecs.At(c, i)
				}
				if math.Abs(p-q) > eigenProjectorTol {
					t.Fatalf("n=%d: top-%d projector (%d,%d) = %v, Jacobi %v", n, k, r, c, p, q)
				}
			}
		}
	}
}

// TestEigenSymMatchesJacobi holds the QL solver to the Jacobi it replaced
// over the Gram set: eigenvalues within 1e-12 of the largest, residual and
// orthonormality within 1e-12, and the top-2, -3 and -4 projectors PCA
// builds its normal subspace from within 1e-10 wherever the eigengap makes
// them well defined.
func TestEigenSymMatchesJacobi(t *testing.T) {
	for _, g := range eigenTestGrams() {
		vals, vecs, err := EigenSym(g)
		if err != nil {
			t.Fatalf("n=%d: %v", g.Rows, err)
		}
		checkEigen(t, g, vals, vecs, true)
	}
}

// TestEigenSymRejectsNonFinite: a NaN or ±Inf entry is an error naming it,
// before any work, through EigenSym and SVDThin alike — never NaN
// eigenvalues with a nil error.
func TestEigenSymRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rng := rand.New(rand.NewSource(7))
		sym := randomGram(rng, 40, 32)
		sym.Set(5, 3, bad)
		if vals, _, err := EigenSym(sym); err == nil || !strings.Contains(err.Error(), "(5,3)") {
			t.Errorf("EigenSym with %v at (5,3): values %v, error %v", bad, vals[:2], err)
		}
		tall := NewMatrix(40, 32)
		for i := range tall.Data {
			tall.Data[i] = rng.NormFloat64()
		}
		tall.Set(7, 4, bad)
		if _, sigma, _, err := SVDThin(tall, 0); err == nil || !strings.Contains(err.Error(), "(7,4)") {
			t.Errorf("SVDThin with %v at (7,4): sigma %v, error %v", bad, sigma, err)
		}
	}
}

// fuzzSymmetric decodes fuzz bytes into a finite symmetric matrix. Byte 0
// picks the order n in [1,48]; byte 1 the kind (its value mod 3) and a row
// count r in [1,64] (its value / 3); byte 2 a constant c; the rest are
// entries, cycled, zero when there are none.
//
//	kind 0: the entries fill the lower triangle as signed bytes;
//	kind 1: the Gram of an r×n matrix of the entries (rank ≤ r);
//	kind 2: c·I plus that Gram, so c repeats n − rank times.
func fuzzSymmetric(data []byte) *Matrix {
	at := func(i int) byte { return 0 }
	if len(data) < 2 {
		return NewMatrix(1, 1)
	}
	n, kind, rows := 1+int(data[0])%48, data[1]%3, 1+int(data[1]/3)%64
	c := 0.0
	if len(data) > 2 {
		c = float64(data[2])
	}
	if entries := data[min(3, len(data)):]; len(entries) > 0 {
		at = func(i int) byte { return entries[i%len(entries)] }
	}
	if kind == 0 {
		a := NewMatrix(n, n)
		for i, k := 0, 0; i < n; i++ {
			for j := 0; j <= i; j, k = j+1, k+1 {
				x := float64(int8(at(k)))
				a.Set(i, j, x)
				a.Set(j, i, x)
			}
		}
		return a
	}
	m := NewMatrix(rows, n)
	for i := range m.Data {
		m.Data[i] = float64(at(i))
	}
	g := m.Gram()
	if kind == 2 {
		for i := 0; i < n; i++ {
			g.Data[i*n+i] += c
		}
	}
	return g
}

// FuzzEigenSym holds EigenSym on arbitrary finite symmetric matrices of
// order 1 to 48 — full-rank, rank-deficient and with repeated eigenvalues —
// to descending order, the residual and orthonormality bounds, identical
// bits on a second call, and eigenvalues within 1e-12 of the Jacobi's.
func FuzzEigenSym(f *testing.F) {
	f.Add([]byte{31, 0})    // the 32×32 zero matrix
	f.Add([]byte{31, 2, 1}) // the 32×32 identity
	f.Add([]byte{0, 0, 0, 7})
	gram := []byte{31, 1 + 3*14, 0} // the Gram of a 15-row, 32-column matrix
	for i := 0; i < 15*32; i++ {
		gram = append(gram, byte(i*37%41))
	}
	f.Add(gram)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzSymmetric(data)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		again, againVecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(again[i]) {
				t.Fatalf("eigenvalue %d differs between calls: %v, %v", i, vals[i], again[i])
			}
		}
		for i := range vecs.Data {
			if math.Float64bits(vecs.Data[i]) != math.Float64bits(againVecs.Data[i]) {
				t.Fatalf("eigenvector entry %d differs between calls", i)
			}
		}
		checkEigen(t, a, vals, vecs, false)
	})
}
