package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mul returns a · b, the reference product the decomposition tests
// reconstruct their inputs with.
func mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: mul shape mismatch")
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

// frobenius returns the Frobenius norm of m.
func frobenius(m *Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row should be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Error("Clone should be deep")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose wrong at %d,%d", i, j)
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %f, want %f", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(7, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	g1 := a.Gram()
	g2 := mul(a.T(), a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(g1.At(i, j), g2.At(i, j), 1e-10) {
				t.Fatalf("Gram mismatch at %d,%d: %g vs %g", i, j, g1.At(i, j), g2.At(i, j))
			}
		}
	}
}

func TestScale(t *testing.T) {
	v := []float64{2, 4}
	Scale(v, 0.5)
	if v[0] != 1 || v[1] != 2 {
		t.Error("Scale wrong")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 7}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 7, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Errorf("vals = %v, want [7 3]", vals)
	}
	// Eigenvector for 7 is e2 (up to sign).
	if !almostEq(math.Abs(vecs.At(1, 0)), 1, 1e-10) {
		t.Errorf("vecs = %v", vecs)
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Errorf("vals = %v, want [3 1]", vals)
	}
	// A·v = λ·v for each pair.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av := a.MulVec(v)
		for i := range av {
			if !almostEq(av[i], vals[j]*v[i], 1e-9) {
				t.Errorf("A·v ≠ λ·v for pair %d", j)
			}
		}
	}
}

func TestEigenSymRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	// Build random symmetric matrix.
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormality: VᵀV = I.
	vtv := mul(vecs.T(), vecs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(vtv.At(i, j), want, 1e-8) {
				t.Fatalf("VᵀV not identity at %d,%d: %g", i, j, vtv.At(i, j))
			}
		}
	}
	// Reconstruction: V Λ Vᵀ = A.
	lam := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		lam.Set(i, i, vals[i])
	}
	rec := mul(mul(vecs, lam), vecs.T())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !almostEq(rec.At(i, j), a.At(i, j), 1e-8) {
				t.Fatalf("reconstruction off at %d,%d: %g vs %g", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
	// Descending order.
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestEigenSymRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should fail")
	}
	bad := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(bad); err == nil {
		t.Error("asymmetric should fail")
	}
}

func TestSVDThinReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewMatrix(20, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	u, sigma, v, err := SVDThin(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 6 {
		t.Fatalf("len(sigma) = %d", len(sigma))
	}
	// A ≈ U Σ Vᵀ.
	us := u.Clone()
	for j := 0; j < len(sigma); j++ {
		for i := 0; i < us.Rows; i++ {
			us.Set(i, j, us.At(i, j)*sigma[j])
		}
	}
	rec := mul(us, v.T())
	diff := 0.0
	for i := range a.Data {
		d := rec.Data[i] - a.Data[i]
		diff += d * d
	}
	if math.Sqrt(diff) > 1e-8*frobenius(a) {
		t.Errorf("SVD reconstruction error too large: %g", math.Sqrt(diff))
	}
	// Singular values descending and non-negative.
	for i := range sigma {
		if sigma[i] < 0 {
			t.Error("negative singular value")
		}
		if i > 0 && sigma[i] > sigma[i-1]+1e-12 {
			t.Error("singular values not descending")
		}
	}
}

func TestSVDThinRankTruncation(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewMatrix(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	_, sigma, _, err := SVDThin(a, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 1 {
		t.Errorf("rank-1 matrix kept %d singular values: %v", len(sigma), sigma)
	}
}

func TestSVDThinShapeError(t *testing.T) {
	if _, _, _, err := SVDThin(NewMatrix(2, 5), 0); err == nil {
		t.Error("rows<cols should fail")
	}
}

func TestSVDOrthonormalUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(15, 4)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		u, _, _, err := SVDThin(a, 1e-12)
		if err != nil {
			return false
		}
		utu := mul(u.T(), u)
		for i := 0; i < utu.Rows; i++ {
			for j := 0; j < utu.Cols; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(utu.At(i, j), want, 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(10, 10)
	if m.String() == "" {
		t.Error("String should render")
	}
}
