package regress

import (
	"math"
	"testing"
	"testing/quick"

	"predictddl/internal/tensor"
)

// synthData builds a noisy dataset y = f(x) over uniformly sampled features.
func synthData(rng *tensor.RNG, n, d int, noise float64, f func([]float64) float64) (*tensor.Matrix, []float64) {
	x := tensor.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		rng.FillUniform(row, -2, 2)
		y[i] = f(row) + rng.Normal(0, noise)
	}
	return x, y
}

func TestLinearRegressionRecoversPlane(t *testing.T) {
	rng := tensor.NewRNG(1)
	x, y := synthData(rng, 200, 3, 0.01, func(v []float64) float64 {
		return 2 + 3*v[0] - v[1] + 0.5*v[2]
	})
	m := NewLinearRegression()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := PredictAll(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := RMSE(pred, y); rmse > 0.05 {
		t.Fatalf("linear RMSE = %v on linear data", rmse)
	}
	if got := len(m.coef); got != 4 {
		t.Fatalf("coefficients = %d, want 4", got)
	}
}

func TestLinearRegressionUnderfitsQuadratic(t *testing.T) {
	rng := tensor.NewRNG(2)
	x, y := synthData(rng, 200, 1, 0, func(v []float64) float64 { return v[0] * v[0] })
	lin := NewLinearRegression()
	poly := NewPolynomialRegression(2)
	if err := lin.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := poly.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lp, _ := PredictAll(lin, x)
	pp, _ := PredictAll(poly, x)
	if RMSE(pp, y) >= RMSE(lp, y)/10 {
		t.Fatalf("poly RMSE %v not ≪ linear RMSE %v on quadratic data", RMSE(pp, y), RMSE(lp, y))
	}
}

func TestPolynomialRegressionExactQuadratic(t *testing.T) {
	rng := tensor.NewRNG(3)
	x, y := synthData(rng, 100, 2, 0, func(v []float64) float64 {
		return 1 + v[0] + v[1]*v[1] - 2*v[0]*v[1]
	})
	m := NewPolynomialRegression(2)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := PredictAll(m, x)
	if rmse := RMSE(pred, y); rmse > 1e-3 {
		t.Fatalf("degree-2 fit RMSE = %v on quadratic data", rmse)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	models := []Regressor{
		NewLinearRegression(),
		NewPolynomialRegression(2),
		NewSVR(),
		NewMLPRegressor(3),
	}
	for _, m := range models {
		if _, err := m.Predict([]float64{1}); err == nil {
			t.Errorf("%s: expected ErrNotFitted", m.Name())
		}
	}
}

func TestDimensionMismatchAfterFit(t *testing.T) {
	rng := tensor.NewRNG(4)
	x, y := synthData(rng, 50, 2, 0.1, func(v []float64) float64 { return v[0] })
	models := []Regressor{
		NewLinearRegression(),
		NewPolynomialRegression(2),
		NewSVR(),
		NewMLPRegressor(2),
	}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
		if _, err := m.Predict([]float64{1, 2, 3}); err == nil {
			t.Errorf("%s: accepted wrong dimensionality", m.Name())
		}
	}
}

func TestFitRejectsBadData(t *testing.T) {
	m := NewLinearRegression()
	if err := m.Fit(tensor.NewMatrix(0, 0), nil); err == nil {
		t.Fatal("empty design accepted")
	}
	if err := m.Fit(tensor.NewMatrix(3, 2), []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// supportVectors counts training points with non-zero dual coefficients.
func supportVectors(s *SVR) int {
	var c int
	for _, b := range s.beta {
		if b != 0 {
			c++
		}
	}
	return c
}

func TestSVRFitsSinusoid(t *testing.T) {
	rng := tensor.NewRNG(5)
	x, y := synthData(rng, 150, 1, 0.02, func(v []float64) float64 { return math.Sin(2 * v[0]) })
	m := &SVR{C: 100, Epsilon: 0.05, Kernel: RBFKernel{Gamma: 1}}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := PredictAll(m, x)
	if rmse := RMSE(pred, y); rmse > 0.1 {
		t.Fatalf("RBF SVR RMSE = %v on sin data", rmse)
	}
	if supportVectors(m) == 0 {
		t.Fatal("no support vectors selected")
	}
}

func TestSVRLinearKernelOnLinearData(t *testing.T) {
	rng := tensor.NewRNG(6)
	x, y := synthData(rng, 100, 2, 0.02, func(v []float64) float64 { return 3*v[0] - v[1] + 1 })
	m := &SVR{C: 100, Epsilon: 0.05, Kernel: LinearKernel{}}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := PredictAll(m, x)
	if rmse := RMSE(pred, y); rmse > 0.15 {
		t.Fatalf("linear SVR RMSE = %v", rmse)
	}
}

func TestSVRRejectsBadHyperparams(t *testing.T) {
	rng := tensor.NewRNG(7)
	x, y := synthData(rng, 10, 1, 0, func(v []float64) float64 { return v[0] })
	if err := (&SVR{C: 0, Epsilon: 0.1}).Fit(x, y); err == nil {
		t.Fatal("C=0 accepted")
	}
	if err := (&SVR{C: 1, Epsilon: -1}).Fit(x, y); err == nil {
		t.Fatal("negative ε accepted")
	}
}

func TestSVREpsilonTubeSparsity(t *testing.T) {
	// A huge ε tube should swallow all residuals → all-zero duals.
	rng := tensor.NewRNG(8)
	x, y := synthData(rng, 60, 1, 0.01, func(v []float64) float64 { return 0.1 * v[0] })
	m := &SVR{C: 10, Epsilon: 100, Kernel: LinearKernel{}}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if n := supportVectors(m); n != 0 {
		t.Fatalf("ε=100 still selected %d support vectors", n)
	}
}

func TestMLPRegressorFitsNonlinear(t *testing.T) {
	rng := tensor.NewRNG(9)
	x, y := synthData(rng, 200, 1, 0.02, func(v []float64) float64 { return math.Tanh(2 * v[0]) })
	m := NewMLPRegressor(5)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := PredictAll(m, x)
	if rmse := RMSE(pred, y); rmse > 0.1 {
		t.Fatalf("MLP RMSE = %v", rmse)
	}
}

func TestMLPRegressorRejectsZeroHidden(t *testing.T) {
	rng := tensor.NewRNG(10)
	x, y := synthData(rng, 10, 1, 0, func(v []float64) float64 { return v[0] })
	if err := NewMLPRegressor(0).Fit(x, y); err == nil {
		t.Fatal("0 hidden neurons accepted")
	}
}

func TestPolynomialFeaturesKnown(t *testing.T) {
	got := PolynomialFeatures([]float64{2, 3}, 2)
	want := []float64{2, 3, 4, 6, 9} // a b a² ab b²
	if len(got) != len(want) {
		t.Fatalf("poly features = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("poly features = %v, want %v", got, want)
		}
	}
}

func TestPolynomialFeaturesDegree3Count(t *testing.T) {
	// n=3, degree 3: 3 + 6 + 10 = 19 monomials.
	got := PolynomialFeatures([]float64{1, 2, 3}, 3)
	if len(got) != 19 {
		t.Fatalf("degree-3 count = %d, want 19", len(got))
	}
	if got[len(got)-1] != 27 { // z³ is the final monomial
		t.Fatalf("last monomial = %v, want 27", got[len(got)-1])
	}
}

func TestPolynomialFeaturesLengthProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(5)
		deg := 1 + rng.Intn(3)
		v := make([]float64, n)
		rng.FillNormal(v, 0, 1)
		return len(PolynomialFeatures(v, deg)) == polyLen(n, deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardScaler(t *testing.T) {
	x, _ := tensor.NewMatrixFrom(3, 2, []float64{1, 10, 2, 10, 3, 10})
	s := FitScaler(x)
	out := s.TransformMatrix(x)
	col0 := out.Col(0)
	if math.Abs(tensor.Mean(col0)) > 1e-12 || math.Abs(tensor.Std(col0)-1) > 1e-12 {
		t.Fatalf("standardized col0 mean/std = %v/%v", tensor.Mean(col0), tensor.Std(col0))
	}
	// Constant column passes through centered but unscaled.
	col1 := out.Col(1)
	for _, v := range col1 {
		if v != 0 {
			t.Fatalf("constant column transformed to %v", col1)
		}
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := tensor.NewRNG(11)
	train, test := TrainTestSplit(10, 0.8, rng)
	if len(train) != 8 || len(test) != 2 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d duplicated", i)
		}
		seen[i] = true
	}
	// Tiny n still yields non-empty splits.
	train, test = TrainTestSplit(2, 0.99, rng)
	if len(train) != 1 || len(test) != 1 {
		t.Fatalf("degenerate split %d/%d", len(train), len(test))
	}
}

func TestMetricsKnownValues(t *testing.T) {
	pred := []float64{2, 4}
	act := []float64{1, 5}
	if got := RMSE(pred, act); got != 1 {
		t.Fatalf("RMSE = %v", got)
	}
	if got := RelativeRatio(pred, act); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("RelativeRatio = %v", got) // (2/1 + 4/5)/2 = 1.4
	}
	if got := MeanRelativeError(pred, act); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("MeanRelativeError = %v", got) // (1 + 0.2)/2
	}
}

func TestGridSearchPicksRightFamily(t *testing.T) {
	rng := tensor.NewRNG(12)
	x, y := synthData(rng, 120, 1, 0.05, func(v []float64) float64 { return math.Sin(3 * v[0]) })
	cands := []Candidate{
		{Label: "linear", New: func() Regressor { return NewLinearRegression() }},
		{Label: "svr-rbf", New: func() Regressor { return &SVR{C: 100, Epsilon: 0.05, Kernel: RBFKernel{Gamma: 2}} }},
	}
	best, results, err := GridSearch(cands, x, y, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if best.Name() != "svr-rbf(γ=2)" {
		t.Fatalf("grid picked %q for sin data", best.Name())
	}
}

func TestGridSearchEmptyCandidates(t *testing.T) {
	if _, _, err := GridSearch(nil, tensor.NewMatrix(2, 1), []float64{1, 2}, 0.5, tensor.NewRNG(1)); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestSVRGridAndMLPGridShapes(t *testing.T) {
	// 4 C x 3 ε x (1 linear + 4 γ) = 60 candidates.
	if got := len(SVRGrid()); got != 60 {
		t.Fatalf("SVR grid = %d, want 60", got)
	}
	if got := len(MLPGrid()); got != 5 {
		t.Fatalf("MLP grid = %d, want 5", got)
	}
}

// Property: linear regression is invariant to benign data (never NaN) on
// random well-conditioned problems.
func TestLinearRegressionFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		x, y := synthData(rng, 30, 3, 0.1, func(v []float64) float64 { return v[0] + v[1]*v[2] })
		m := NewLinearRegression()
		if err := m.Fit(x, y); err != nil {
			return false
		}
		p, err := m.Predict([]float64{1, 1, 1})
		return err == nil && !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKFoldDisjointExhaustive(t *testing.T) {
	rng := tensor.NewRNG(20)
	folds, err := KFold(23, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, idx := range f {
			seen[idx]++
		}
	}
	if len(seen) != 23 {
		t.Fatalf("covered %d indices, want 23", len(seen))
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", idx, c)
		}
	}
	if _, err := KFold(5, 1, rng); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KFold(3, 4, rng); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestCrossValidateLinear(t *testing.T) {
	rng := tensor.NewRNG(21)
	x, y := synthData(rng, 100, 2, 0.05, func(v []float64) float64 { return 3 + v[0] - v[1] })
	rmses, err := CrossValidate(func() Regressor { return NewLinearRegression() }, x, y, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rmses) != 5 {
		t.Fatalf("rmses = %v", rmses)
	}
	for i, r := range rmses {
		if r > 0.2 {
			t.Fatalf("fold %d RMSE %v on linear data", i, r)
		}
	}
}
