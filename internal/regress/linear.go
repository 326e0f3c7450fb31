package regress

import (
	"fmt"

	"predictddl/internal/tensor"
)

// LinearRegression is (optionally ridge-regularized) least squares with an
// intercept — the "generalized linear regression" of the paper's regressor
// comparison, and the building block of polynomial regression.
type LinearRegression struct {
	// Lambda is the L2 penalty; 0 gives ordinary least squares (with a
	// tiny jitter fallback for rank-deficient designs).
	Lambda float64

	scaler *StandardScaler
	coef   []float64 // len = features+1; coef[0] is the intercept
}

// NewLinearRegression returns an OLS model with a small default ridge
// penalty for numerical robustness.
func NewLinearRegression() *LinearRegression { return &LinearRegression{Lambda: 1e-8} }

// Name implements Regressor.
func (l *LinearRegression) Name() string { return "linear" }

// Fit implements Regressor.
func (l *LinearRegression) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	l.scaler = FitScaler(x)
	xs := l.scaler.TransformMatrix(x)
	design := tensor.NewMatrix(xs.Rows(), xs.Cols()+1)
	for i := 0; i < xs.Rows(); i++ {
		row := design.Row(i)
		row[0] = 1
		copy(row[1:], xs.Row(i))
	}
	coef, err := tensor.RidgeSolve(design, y, l.Lambda)
	if err != nil {
		return fmt.Errorf("regress: linear fit: %w", err)
	}
	l.coef = coef
	return nil
}

// Predict implements Regressor.
func (l *LinearRegression) Predict(features []float64) (float64, error) {
	if l.coef == nil {
		return 0, ErrNotFitted
	}
	if len(features) != len(l.coef)-1 {
		return 0, fmt.Errorf("regress: linear model has %d features, got %d", len(l.coef)-1, len(features))
	}
	fs := l.scaler.Transform(features)
	return l.coef[0] + tensor.Dot(l.coef[1:], fs), nil
}

// PolynomialRegression expands features with degree-≤d monomials before a
// ridge linear fit. Degree 2 is the paper's best-performing configuration
// ("PR" in Fig. 10).
type PolynomialRegression struct {
	// Degree is the maximum monomial degree (≥1).
	Degree int
	// Lambda is the ridge penalty applied after expansion.
	Lambda float64

	inputDim  int
	linear    *LinearRegression
	preScaler *StandardScaler // standardizes raw inputs before expansion
}

// NewPolynomialRegression returns a degree-d model with a moderate ridge
// penalty: the expansion inflates dimensionality well past typical
// campaign sizes, so unregularized fits memorize the training
// configurations and extrapolate wildly on unseen architectures.
func NewPolynomialRegression(degree int) *PolynomialRegression {
	return &PolynomialRegression{Degree: degree, Lambda: 1e-3}
}

// Name implements Regressor.
func (p *PolynomialRegression) Name() string { return fmt.Sprintf("polynomial-%d", p.Degree) }

// Fit implements Regressor.
func (p *PolynomialRegression) Fit(x *tensor.Matrix, y []float64) error {
	if p.Degree < 1 {
		return fmt.Errorf("regress: polynomial degree %d < 1", p.Degree)
	}
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	// Standardize before expansion so squared terms stay well-scaled, then
	// expand each standardized row.
	scaler := FitScaler(x)
	expanded := tensor.NewMatrix(x.Rows(), polyLen(x.Cols(), p.Degree))
	for i := 0; i < x.Rows(); i++ {
		expanded.SetRow(i, PolynomialFeatures(scaler.Transform(x.Row(i)), p.Degree))
	}
	lin := &LinearRegression{Lambda: p.Lambda}
	if err := lin.Fit(expanded, y); err != nil {
		return err
	}
	p.inputDim = x.Cols()
	p.linear = lin
	// Keep the pre-expansion scaler by chaining it in front of the linear
	// model's own scaler at prediction time.
	p.preScaler = scaler
	return nil
}

// Predict implements Regressor.
func (p *PolynomialRegression) Predict(features []float64) (float64, error) {
	if p.linear == nil {
		return 0, ErrNotFitted
	}
	if len(features) != p.inputDim {
		return 0, fmt.Errorf("regress: polynomial model has %d features, got %d", p.inputDim, len(features))
	}
	return p.linear.Predict(PolynomialFeatures(p.preScaler.Transform(features), p.Degree))
}
