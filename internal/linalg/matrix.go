// Package linalg implements the small dense linear algebra needed by the
// PCA-based detector and by correspondence analysis (SCANN): matrices,
// symmetric eigendecomposition (Householder tridiagonalization and implicit
// QL), and a thin SVD built on it.
//
// The matrices in this pipeline are tall and skinny — sketch time series of
// a few hundred rows by a few dozen columns, or community-vote tables of a
// few thousand rows by ~24 columns — so the eigensolver works on the small
// (≤ 64×64) n×n Gram matrix, on one flat slice of its backing array.
//
// Why tred2/tql2: it is the textbook dense symmetric solver (EISPACK, as
// published in JAMA), five to nine times faster than the cyclic Jacobi it
// replaced on PCA's 32×32 covariances, and it is deterministic — the same
// input gives the same bits on every run and at every worker count, which is
// what the pipeline's byte-identity contract needs. It is not bit-identical
// to the Jacobi: eigenvalues agree to about 1e-14 relative, and SCANN's
// score, which ca.Analyze derives from these eigenvectors and the ADMD file
// prints at full precision, moved by about 1e-12 with the switch. Any change
// to EigenSym must stay bit-identical to the textbook reference in
// eigen_ref_test.go (TestEigenSymBitIdentical) and within the accuracy
// bounds of the Jacobi reference there (TestEigenSymMatchesJacobi).
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m · x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Gram returns mᵀ·m, the Cols×Cols Gram matrix, exploiting symmetry.
func (m *Matrix) Gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.Cols; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			ga := g.Row(a)
			for b := a; b < m.Cols; b++ {
				ga[b] += va * row[b]
			}
		}
	}
	for a := 0; a < m.Cols; a++ {
		for b := 0; b < a; b++ {
			g.Set(a, b, g.At(b, a))
		}
	}
	return g
}

// String renders the matrix for debugging (rows truncated at 8).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 8; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < 8; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.3g", m.At(i, j))
		}
	}
	if m.Rows > 8 || m.Cols > 8 {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}

// Scale multiplies a vector by s in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}
