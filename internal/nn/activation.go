package nn

import "math"

// Activation is an element-wise nonlinearity with a derivative expressed in
// terms of the activation's input and output (whichever is cheaper).
type Activation interface {
	// Name identifies the activation in diagnostics.
	Name() string
	// Apply computes f(x).
	Apply(x float64) float64
	// Deriv computes f'(x) given both the pre-activation x and the output
	// y = f(x).
	Deriv(x, y float64) float64
}

type identity struct{}

func (identity) Name() string               { return "identity" }
func (identity) Apply(x float64) float64    { return x }
func (identity) Deriv(_, _ float64) float64 { return 1 }

type relu struct{}

func (relu) Name() string { return "relu" }
func (relu) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
func (relu) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

type tanhAct struct{}

func (tanhAct) Name() string               { return "tanh" }
func (tanhAct) Apply(x float64) float64    { return math.Tanh(x) }
func (tanhAct) Deriv(_, y float64) float64 { return 1 - y*y }

type sigmoid struct{}

func (sigmoid) Name() string { return "sigmoid" }
func (sigmoid) Apply(x float64) float64 {
	// Numerically stable logistic.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
func (sigmoid) Deriv(_, y float64) float64 { return y * (1 - y) }

// Exported singleton activations.
var (
	Identity Activation = identity{}
	ReLU     Activation = relu{}
	Tanh     Activation = tanhAct{}
)

// Sigmoidf applies the numerically stable logistic function; exposed for
// modules (GRU) that use gates outside the Activation interface.
func Sigmoidf(x float64) float64 { return sigmoid{}.Apply(x) }
