// Package nn is a small neural-network kit with explicit (hand-derived)
// gradients: linear layers, multi-layer perceptrons, a GRU cell, losses, and
// optimizers. It exists so the GHN-2 graph hypernetwork (internal/ghn) and
// the MLP regressor (internal/regress) can be trained from scratch with
// nothing but the standard library.
//
// Modules are deliberately vector-oriented (one sample at a time): GHN-2's
// message passing touches one node embedding per call, and the regression
// datasets in this project are small. Forward methods return a cache value
// that the matching Backward consumes, so a single module can be applied many
// times inside one computation graph (as GHN-2 does) without clobbering
// state. Gradients accumulate into Param.Grad until ZeroGrads is called.
//
// Forward, Backward and HuberLoss take an *Arena first and draw every
// vector they return or cache from it; nil means the heap. Forward and
// InferInto run the same tensor kernels, so training and serving share one
// set of arithmetic (DESIGN.md §10).
package nn

import (
	"fmt"
	"math"

	"predictddl/internal/tensor"
)

// Param is one learnable tensor together with its gradient accumulator.
// Vector parameters (biases) are stored as 1xN matrices.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a parameter with the given shape; weights start at zero
// and are typically filled by an initializer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.NewMatrix(rows, cols), Grad: tensor.NewMatrix(rows, cols)}
}

// ZeroGrads resets the gradient accumulators of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// GradNorm returns the global L2 norm across all parameter gradients.
func GradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global L2 norm does not exceed
// maxNorm, and returns the pre-clip norm. This is the gradient-explosion
// guard GHN-2 pairs with operation-dependent normalization.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

// CheckFinite returns an error naming the first parameter containing a NaN
// or Inf, either in weights or gradients. Training loops call it to fail
// fast instead of silently diverging.
func CheckFinite(params []*Param) error {
	for _, p := range params {
		for _, v := range p.W.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: non-finite weight in %q", p.Name)
			}
		}
		for _, v := range p.Grad.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: non-finite gradient in %q", p.Name)
			}
		}
	}
	return nil
}
