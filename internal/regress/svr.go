package regress

import (
	"fmt"
	"math"

	"predictddl/internal/tensor"
)

// Kernel computes the inner product of two feature vectors in the kernel's
// implicit space.
type Kernel interface {
	// Name identifies the kernel for diagnostics and grid-search reports.
	Name() string
	// Eval computes k(a, b).
	Eval(a, b []float64) float64
}

// LinearKernel is k(a,b) = aᵀb.
type LinearKernel struct{}

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 { return tensor.Dot(a, b) }

// RBFKernel is the radial kernel k(a,b) = exp(−γ‖a−b‖²).
type RBFKernel struct {
	// Gamma is the inverse length-scale γ.
	Gamma float64
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

// SVR is ε-insensitive support-vector regression ("SVR" in Fig. 10),
// trained by coordinate descent on the dual with the bias folded into the
// kernel (K' = K + 1), which removes the equality constraint and admits
// exact per-coordinate updates with soft thresholding.
type SVR struct {
	// C bounds the dual coefficients (regularization trade-off).
	C float64
	// Epsilon is the width of the insensitive tube.
	Epsilon float64
	// Kernel defaults to RBF with γ=0.1.
	Kernel Kernel
	// MaxIter bounds training sweeps; Tol is the convergence threshold on
	// the largest coefficient change per sweep.
	MaxIter int
	Tol     float64

	scaler      *StandardScaler
	support     *tensor.Matrix // scaled training rows
	beta        []float64      // dual coefficients (αᵢ − αᵢ*)
	yMean, yStd float64        // target standardization
}

// NewSVR returns an SVR with the paper's mid-grid defaults (C=100, ε=0.1,
// RBF γ=0.1).
func NewSVR() *SVR {
	return &SVR{C: 100, Epsilon: 0.1, Kernel: RBFKernel{Gamma: 0.1}}
}

// Name implements Regressor.
func (s *SVR) Name() string {
	k := "rbf"
	if s.Kernel != nil {
		k = s.Kernel.Name()
	}
	return fmt.Sprintf("svr-%s", k)
}

// Fit implements Regressor.
func (s *SVR) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	if s.C <= 0 {
		return fmt.Errorf("regress: SVR requires C > 0, got %g", s.C)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("regress: SVR requires ε ≥ 0, got %g", s.Epsilon)
	}
	if s.Kernel == nil {
		s.Kernel = RBFKernel{Gamma: 0.1}
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 300
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-5
	}

	s.scaler = FitScaler(x)
	xs := s.scaler.TransformMatrix(x)
	n := xs.Rows()

	// Standardize targets so ε and C are in unit-variance units (the
	// convention the paper's grid ranges assume); the +1 kernel offset
	// absorbs residual bias.
	s.yMean = tensor.Mean(y)
	s.yStd = tensor.Std(y)
	if s.yStd == 0 {
		s.yStd = 1
	}
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = (v - s.yMean) / s.yStd
	}

	// Gram matrix with folded bias.
	k := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := s.Kernel.Eval(xs.Row(i), xs.Row(j)) + 1
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	// Coordinate descent on
	//   min_β 0.5 βᵀKβ − βᵀy + ε‖β‖₁   s.t. |βᵢ| ≤ C.
	beta := make([]float64, n)
	kBeta := make([]float64, n) // K·β maintained incrementally
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			kii := k.At(i, i)
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := yc[i] - (kBeta[i] - kii*beta[i])
			// Soft-threshold by ε, then clip to the box.
			var b float64
			switch {
			case r > s.Epsilon:
				b = (r - s.Epsilon) / kii
			case r < -s.Epsilon:
				b = (r + s.Epsilon) / kii
			}
			if b > s.C {
				b = s.C
			} else if b < -s.C {
				b = -s.C
			}
			if d := b - beta[i]; d != 0 {
				beta[i] = b
				for j := 0; j < n; j++ {
					kBeta[j] += d * k.At(i, j)
				}
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	s.support = xs
	s.beta = beta
	return nil
}

// Predict implements Regressor.
func (s *SVR) Predict(features []float64) (float64, error) {
	if s.beta == nil {
		return 0, ErrNotFitted
	}
	if len(features) != s.support.Cols() {
		return 0, fmt.Errorf("regress: SVR fitted on %d features, got %d", s.support.Cols(), len(features))
	}
	fs := s.scaler.Transform(features)
	var out float64
	for i, b := range s.beta {
		if b == 0 {
			continue
		}
		out += b * (s.Kernel.Eval(s.support.Row(i), fs) + 1)
	}
	return out*s.yStd + s.yMean, nil
}
