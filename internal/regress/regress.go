// Package regress implements the regression algorithms PredictDDL's
// Inference Engine chooses between. Five families come from the paper
// (§III-C, §IV-B2): generalized linear (ridge) regression, second-order
// polynomial regression, ε-support-vector regression with linear and RBF
// kernels, and a small multi-layer-perceptron regressor. Three more enter
// the backend leaderboard beside them: distance-weighted k-nearest
// neighbors, gradient-boosted stumps, and the analytic roofline floor. The
// registry (Backends) serves all eight by name. The package also holds
// feature scaling, train/test and k-fold splitting, grid search, and the
// error metrics the paper reports.
//
// All models implement Regressor. Fit never mutates its inputs; Predict is
// safe for concurrent use after Fit returns.
package regress

import (
	"errors"
	"fmt"

	"predictddl/internal/tensor"
)

// Regressor is a trainable single-output regression model.
type Regressor interface {
	// Name identifies the model family (e.g. "polynomial-2").
	Name() string
	// Fit trains on the rows of x against targets y.
	Fit(x *tensor.Matrix, y []float64) error
	// Predict returns the estimate for one feature vector. It returns an
	// error if the model is unfitted or the dimensionality disagrees.
	Predict(features []float64) (float64, error)
}

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("regress: model is not fitted")

func checkTrainingData(x *tensor.Matrix, y []float64) error {
	if x == nil || x.Rows() == 0 || x.Cols() == 0 {
		return errors.New("regress: empty design matrix")
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("regress: %d rows but %d targets", x.Rows(), len(y))
	}
	return nil
}

// PredictAll evaluates the model on every row of x.
func PredictAll(m Regressor, x *tensor.Matrix) ([]float64, error) {
	out := make([]float64, x.Rows())
	for i := range out {
		p, err := m.Predict(x.Row(i))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// StandardScaler standardizes features to zero mean and unit variance,
// remembering the training statistics. Constant columns pass through
// unscaled (std treated as 1) so one-hot and bias-like features survive.
type StandardScaler struct {
	mean, std []float64
}

// FitScaler computes column statistics over x.
func FitScaler(x *tensor.Matrix) *StandardScaler {
	cols := x.Cols()
	s := &StandardScaler{mean: make([]float64, cols), std: make([]float64, cols)}
	for j := 0; j < cols; j++ {
		col := x.Col(j)
		s.mean[j] = tensor.Mean(col)
		sd := tensor.Std(col)
		if sd == 0 {
			sd = 1
		}
		s.std[j] = sd
	}
	return s
}

// Transform returns the standardized copy of v.
func (s *StandardScaler) Transform(v []float64) []float64 {
	if len(v) != len(s.mean) {
		panic(fmt.Sprintf("regress: scaler fitted on %d features, got %d", len(s.mean), len(v)))
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = (x - s.mean[i]) / s.std[i]
	}
	return out
}

// TransformMatrix standardizes every row of x into a new matrix.
func (s *StandardScaler) TransformMatrix(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		out.SetRow(i, s.Transform(x.Row(i)))
	}
	return out
}

// PolynomialFeatures expands v with all degree-≤d monomials of its entries
// (excluding the constant term, which models add as an intercept). Degree 2
// of [a b] yields [a b a² ab b²].
func PolynomialFeatures(v []float64, degree int) []float64 {
	if degree < 1 {
		panic(fmt.Sprintf("regress: polynomial degree %d < 1", degree))
	}
	out := make([]float64, 0, polyLen(len(v), degree))
	out = append(out, v...)
	prev := make([]int, len(v)) // start index of previous degree block per variable
	// Iteratively build degree k terms as x_i * (degree k−1 terms starting
	// at x_i) to enumerate monomials without duplicates.
	blockStart := 0
	for i := range prev {
		prev[i] = i
	}
	blockLen := len(v)
	for k := 2; k <= degree; k++ {
		newStart := len(out)
		newPrev := make([]int, len(v))
		for i, xi := range v {
			newPrev[i] = len(out)
			for j := prev[i]; j < blockStart+blockLen; j++ {
				out = append(out, xi*out[j])
			}
		}
		blockStart = newStart
		blockLen = len(out) - newStart
		prev = newPrev
	}
	return out
}

func polyLen(n, degree int) int {
	// Sum over k=1..degree of C(n+k−1, k).
	total := 0
	term := 1
	for k := 1; k <= degree; k++ {
		term = term * (n + k - 1) / k
		total += term
	}
	return total
}

// TrainTestSplit shuffles indices [0, n) with rng and splits them so that
// trainFrac of the data lands in the first return slice. trainFrac must be
// in (0, 1); both splits are guaranteed non-empty for n ≥ 2.
func TrainTestSplit(n int, trainFrac float64, rng *tensor.RNG) (train, test []int) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("regress: trainFrac %v outside (0,1)", trainFrac))
	}
	perm := rng.Perm(n)
	k := int(float64(n) * trainFrac)
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	return perm[:k], perm[k:]
}

// Take gathers the selected rows/targets into a new design matrix and
// target slice.
func Take(x *tensor.Matrix, y []float64, idx []int) (*tensor.Matrix, []float64) {
	out := tensor.NewMatrix(len(idx), x.Cols())
	ty := make([]float64, len(idx))
	for i, id := range idx {
		out.SetRow(i, x.Row(id))
		ty[i] = y[id]
	}
	return out, ty
}
