package ca

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mawilab/internal/linalg"
)

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(linalg.NewMatrix(0, 0), 0); err != ErrEmptyTable {
		t.Errorf("empty: %v", err)
	}
	m := linalg.FromRows([][]float64{{1, -1}})
	if _, err := Analyze(m, 0); err != ErrNegativeEntry {
		t.Errorf("negative: %v", err)
	}
	z := linalg.NewMatrix(2, 2)
	if _, err := Analyze(z, 0); err != ErrZeroTotal {
		t.Errorf("zero: %v", err)
	}
}

// TestAnalyzeRejectsNonFinite: a NaN or ±Inf vote count is an error naming
// the entry, not NaN coordinates (nor, for −Inf, a "negative entry").
func TestAnalyzeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := linalg.NewMatrix(40, 12)
		for i := range m.Data {
			m.Data[i] = float64(i % 3)
		}
		m.Set(6, 2, bad)
		if res, err := Analyze(m, 2); !errors.Is(err, ErrNonFiniteEntry) || !strings.Contains(err.Error(), "(6,2)") {
			t.Errorf("%v at (6,2): result %v, error %v", bad, res, err)
		}
	}
}

func TestIndependentTableHasNoInertia(t *testing.T) {
	// Rank-1 table (rows proportional): the independence model fits
	// exactly, so all residuals vanish.
	m := linalg.FromRows([][]float64{
		{10, 20, 30},
		{1, 2, 3},
		{5, 10, 15},
	})
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("inertia = %g, want ~0", res.Inertia)
	}
	if len(res.Singular) != 0 {
		t.Errorf("kept %d axes for an independent table", len(res.Singular))
	}
}

func TestTwoBlockSeparation(t *testing.T) {
	// Two clear row blocks with opposite column profiles: the first axis
	// must separate them.
	rows := [][]float64{
		{10, 0}, {9, 1}, {10, 1}, // block A
		{0, 10}, {1, 9}, {1, 10}, // block B
	}
	res, err := Analyze(linalg.FromRows(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Singular) < 1 {
		t.Fatal("no axes retained")
	}
	signA := math.Signbit(res.RowCoords.At(0, 0))
	for i := 1; i < 3; i++ {
		if math.Signbit(res.RowCoords.At(i, 0)) != signA {
			t.Errorf("block A row %d on wrong side", i)
		}
	}
	for i := 3; i < 6; i++ {
		if math.Signbit(res.RowCoords.At(i, 0)) == signA {
			t.Errorf("block B row %d on wrong side", i)
		}
	}
	// Within-block distance must be far below between-block distance.
	within := Distance(res.RowCoords.Row(0), res.RowCoords.Row(1))
	between := Distance(res.RowCoords.Row(0), res.RowCoords.Row(3))
	if within*3 > between {
		t.Errorf("within=%g between=%g: poor separation", within, between)
	}
}

func TestConstantColumnIgnored(t *testing.T) {
	// A constant column must not change row coordinates materially: it
	// carries no discriminating information (SCANN's key property).
	base := [][]float64{
		{5, 0}, {5, 1}, {0, 5}, {1, 5},
	}
	withConst := [][]float64{
		{5, 0, 3}, {5, 1, 3}, {0, 5, 3}, {1, 5, 3},
	}
	r1, err := Analyze(linalg.FromRows(base), 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(linalg.FromRows(withConst), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Compare pairwise distance ratios (coordinates are scale/sign free).
	d1 := Distance(r1.RowCoords.Row(0), r1.RowCoords.Row(2)) / (Distance(r1.RowCoords.Row(0), r1.RowCoords.Row(1)) + 1e-12)
	d2 := Distance(r2.RowCoords.Row(0), r2.RowCoords.Row(2)) / (Distance(r2.RowCoords.Row(0), r2.RowCoords.Row(1)) + 1e-12)
	if math.Abs(d1-d2)/d1 > 0.25 {
		t.Errorf("constant column changed geometry: ratio %g vs %g", d1, d2)
	}
}

func TestZeroMassColumnDropped(t *testing.T) {
	m := linalg.FromRows([][]float64{
		{2, 0, 1},
		{1, 0, 2},
	})
	if _, err := Analyze(m, 0); err != nil {
		t.Fatalf("zero-mass column should be tolerated: %v", err)
	}
}

func TestZeroMassRowGetsZeroCoords(t *testing.T) {
	m := linalg.FromRows([][]float64{
		{5, 1},
		{0, 0},
		{1, 5},
	})
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < res.RowCoords.Cols; j++ {
		if res.RowCoords.At(1, j) != 0 {
			t.Errorf("zero-mass row has coord %g", res.RowCoords.At(1, j))
		}
	}
}

func TestMaxDimsTruncates(t *testing.T) {
	rows := [][]float64{
		{9, 1, 1, 3}, {1, 9, 3, 1}, {3, 1, 9, 1}, {1, 3, 1, 9}, {5, 5, 1, 1},
	}
	full, err := Analyze(linalg.FromRows(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Analyze(linalg.FromRows(rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Singular) != 2 {
		t.Errorf("kept %d axes, want 2", len(cut.Singular))
	}
	if len(full.Singular) <= 2 {
		t.Skip("table did not produce >2 axes")
	}
	for j := 0; j < 2; j++ {
		if math.Abs(full.Singular[j]-cut.Singular[j]) > 1e-9 {
			t.Errorf("axis %d singular value changed under truncation", j)
		}
	}
}

func TestInertiaMatchesChiSquare(t *testing.T) {
	// Inertia = chi²/n. Check against a directly computed chi-square.
	rows := [][]float64{
		{20, 10},
		{10, 25},
	}
	m := linalg.FromRows(rows)
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 65.0
	rowSum := []float64{30, 35}
	colSum := []float64{30, 35}
	chi := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := rowSum[i] * colSum[j] / n
			d := rows[i][j] - e
			chi += d * d / e
		}
	}
	if math.Abs(res.Inertia-chi/n) > 1e-9 {
		t.Errorf("inertia = %g, want chi²/n = %g", res.Inertia, chi/n)
	}
}

func TestWideTableFallback(t *testing.T) {
	// More columns than rows exercises the transpose path.
	m := linalg.FromRows([][]float64{
		{5, 1, 0, 2, 3, 1},
		{1, 5, 2, 0, 1, 3},
	})
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCoords.Rows != 2 {
		t.Errorf("row coords rows = %d", res.RowCoords.Rows)
	}
}

func TestProjectRowMatchesAnalyzedRow(t *testing.T) {
	// Projecting the raw values of an analyzed row must land exactly on
	// that row's principal coordinates (CA transition formula).
	rows := [][]float64{
		{8, 1, 1}, {1, 8, 1}, {1, 1, 8}, {4, 4, 2},
	}
	m := linalg.FromRows(rows)
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range rows {
		proj := res.ProjectRow(raw)
		for k := range proj {
			if math.Abs(proj[k]-res.RowCoords.At(i, k)) > 1e-8 {
				t.Fatalf("row %d axis %d: projected %g, analyzed %g", i, k, proj[k], res.RowCoords.At(i, k))
			}
		}
	}
}

func TestProjectRowCentroidAtOrigin(t *testing.T) {
	rows := [][]float64{
		{8, 1, 1}, {1, 8, 1}, {1, 1, 8},
	}
	m := linalg.FromRows(rows)
	res, err := Analyze(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The centroid profile is the column-mass vector.
	centroid := []float64{10, 10, 10}
	proj := res.ProjectRow(centroid)
	for k, v := range proj {
		if math.Abs(v) > 1e-9 {
			t.Errorf("centroid axis %d = %g, want 0", k, v)
		}
	}
}

func TestProjectRowZeroMass(t *testing.T) {
	rows := [][]float64{{5, 1}, {1, 5}}
	res, err := Analyze(linalg.FromRows(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	proj := res.ProjectRow([]float64{0, 0})
	for _, v := range proj {
		if v != 0 {
			t.Error("zero-mass supplementary row should sit at origin")
		}
	}
	// Short raw slices are tolerated.
	if got := res.ProjectRow([]float64{1}); len(got) != len(res.Singular) {
		t.Error("short raw slice should still produce full-length coords")
	}
}

func TestDistanceHelper(t *testing.T) {
	if d := Distance([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Errorf("Distance = %f, want 5", d)
	}
	if d := Distance(nil, nil); d != 0 {
		t.Errorf("empty Distance = %f", d)
	}
}
