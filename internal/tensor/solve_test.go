package tensor

import (
	"testing"
	"testing/quick"
)

func TestCholeskySolveKnown(t *testing.T) {
	// SPD system: [[4,2],[2,3]] x = [10, 9] → x = [1.5, 2].
	a, _ := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	x, err := CholeskySolve(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1.5, 1e-10) || !almostEqual(x[1], 2, 1e-10) {
		t.Fatalf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskySolveRejectsNonSquare(t *testing.T) {
	if _, err := CholeskySolve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCholeskySolveRejectsIndefinite(t *testing.T) {
	a, _ := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	if _, err := CholeskySolve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected ErrSingular for indefinite matrix")
	}
}

func TestRidgeSolveShrinksTowardZero(t *testing.T) {
	rng := NewRNG(7)
	a := rng.GlorotMatrix(30, 4)
	b := make([]float64, 30)
	rng.FillNormal(b, 0, 1)
	x0, err := RidgeSolve(a, b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := RidgeSolve(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if Norm(x1) >= Norm(x0) {
		t.Fatalf("ridge with larger λ must shrink solution: ‖x1‖=%v ‖x0‖=%v", Norm(x1), Norm(x0))
	}
}

func TestRidgeSolveNegativeLambda(t *testing.T) {
	if _, err := RidgeSolve(NewMatrix(2, 2), []float64{1, 2}, -1); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestRidgeSolveRankDeficientFallback(t *testing.T) {
	// Duplicate columns make AᵀA singular; λ=0 path must still succeed via
	// the jitter fallback.
	a, _ := NewMatrixFrom(4, 2, []float64{1, 1, 2, 2, 3, 3, 4, 4})
	x, err := RidgeSolve(a, []float64{2, 4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Any solution with x0+x1 = 2 fits; verify residual ≈ 0.
	for i := 0; i < 4; i++ {
		pred := Dot(a.Row(i), x)
		if !almostEqual(pred, float64(2*(i+1)), 1e-4) {
			t.Fatalf("row %d residual too large: pred=%v", i, pred)
		}
	}
}

// Property: for random SPD systems, CholeskySolve returns x with Ax ≈ b.
func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(6)
		g := rng.GlorotMatrix(n+2, n)
		a := NewMatrix(n, n) // Gram matrix gᵀg: SPD w.h.p.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, Dot(g.Col(i), g.Col(j)))
			}
			a.Add(i, i, 0.1)
		}
		b := make([]float64, n)
		rng.FillNormal(b, 0, 1)
		x, err := CholeskySolve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		return Norm(SubVec(ax, b)) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// At λ→0 ridge must solve the plain least-squares problem, whose solution is
// the one whose residual is orthogonal to A's column space (Aᵀ(b − Ax) = 0).
func TestRidgeMatchesLeastSquaresAtTinyLambda(t *testing.T) {
	rng := NewRNG(11)
	a := rng.GlorotMatrix(20, 3)
	b := make([]float64, 20)
	rng.FillNormal(b, 0, 1)
	rr, err := RidgeSolve(a, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(rr)
	proj, _ := a.MulVecT(SubVec(b, ax))
	if n := Norm(proj); n > 1e-7 {
		t.Fatalf("ridge(λ→0) residual is not orthogonal to the column space: ‖Aᵀr‖ = %v", n)
	}
}
