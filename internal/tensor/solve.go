package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution at
// working precision.
var ErrSingular = errors.New("tensor: matrix is singular to working precision")

// CholeskySolve solves A x = b for a symmetric positive-definite A using a
// Cholesky factorization. A is not modified.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("tensor: cholesky needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("tensor: rhs length %d != %d", len(b), n)
	}
	l, err := cholesky(a)
	if err != nil {
		return nil, err
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		lrow := l.Row(i)
		for j := 0; j < i; j++ {
			s -= lrow[j] * y[j]
		}
		y[i] = s / lrow[i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// cholesky returns the lower-triangular factor L with A = L Lᵀ.
func cholesky(a *Matrix) (*Matrix, error) {
	n := a.rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			lrowI, lrowJ := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				s -= lrowI[k] * lrowJ[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				lrowI[j] = math.Sqrt(s)
			} else {
				lrowI[j] = s / lrowJ[j]
			}
		}
	}
	return l, nil
}

// RidgeSolve solves the L2-regularized least-squares problem
// min ‖A x − b‖² + λ‖x‖² through the normal equations
// (AᵀA + λI) x = Aᵀ b, which are SPD for λ > 0.
func RidgeSolve(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("tensor: negative ridge penalty %g", lambda)
	}
	if len(b) != a.rows {
		return nil, fmt.Errorf("tensor: rhs length %d != rows %d", len(b), a.rows)
	}
	n := a.cols
	ata := NewMatrix(n, n)
	for r := 0; r < a.rows; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			if row[i] == 0 {
				continue
			}
			arow := ata.Row(i)
			for j := 0; j < n; j++ {
				arow[j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		ata.Add(i, i, lambda)
	}
	atb, err := a.MulVecT(b)
	if err != nil {
		return nil, err
	}
	x, err := CholeskySolve(ata, atb)
	if err == nil {
		return x, nil
	}
	// A rank-deficient design with λ == 0 can defeat Cholesky; fall back to
	// a tiny jitter, which is the behaviour regression callers want.
	if lambda == 0 {
		for i := 0; i < n; i++ {
			ata.Add(i, i, 1e-10)
		}
		return CholeskySolve(ata, atb)
	}
	return nil, err
}
