package tensor

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixFromLengthMismatch(t *testing.T) {
	if _, err := NewMatrixFrom(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for mismatched data length")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add, At = %v, want 8", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

func TestMulVecMatchesMatMul(t *testing.T) {
	rng := NewRNG(3)
	a := rng.GlorotMatrix(4, 6)
	v := make([]float64, 6)
	rng.FillNormal(v, 0, 1)
	got, err := a.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		var want float64
		for j, x := range v {
			want += a.At(i, j) * x
		}
		if !almostEqual(got[i], want, 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := NewRNG(4)
	a := rng.GlorotMatrix(5, 3)
	v := make([]float64, 5)
	rng.FillNormal(v, 0, 1)
	got, err := a.MulVecT(v)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		var want float64
		for i, x := range v {
			want += a.At(i, j) * x
		}
		if !almostEqual(got[j], want, 1e-12) {
			t.Fatalf("MulVecT[%d] = %v, want %v", j, got[j], want)
		}
	}
}

func TestRowIsAliased(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[1] = 9
	if m.At(0, 1) != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestScaleInPlace(t *testing.T) {
	a, _ := NewMatrixFrom(1, 2, []float64{6, 12})
	a.ScaleInPlace(2)
	if a.At(0, 0) != 12 || a.At(0, 1) != 24 {
		t.Fatalf("ScaleInPlace got %v", a.Row(0))
	}
}

func TestStringDoesNotExplode(t *testing.T) {
	m := NewMatrix(20, 20)
	s := m.String()
	if len(s) == 0 || len(s) > 2000 {
		t.Fatalf("String() length %d out of expected bounds", len(s))
	}
}
