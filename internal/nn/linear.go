package nn

import (
	"fmt"

	"predictddl/internal/tensor"
)

// Linear is an affine map y = W x + b with W of shape Out x In.
type Linear struct {
	In, Out int
	Weight  *Param // Out x In
	Bias    *Param // 1 x Out
}

// NewLinear returns a Glorot-initialized linear layer drawing from rng.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", out, in),
		Bias:   NewParam(name+".bias", 1, out),
	}
	g := rng.GlorotMatrix(out, in)
	copy(l.Weight.W.Data(), g.Data())
	return l
}

// Params returns the layer's learnable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward computes y = W x + b into a slice from a (nil: the heap), on the
// same kernel as InferInto. len(x) must equal In.
func (l *Linear) Forward(a *Arena, x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: linear forward got %d inputs, want %d", len(x), l.In))
	}
	out := a.Floats(l.Out)
	l.InferInto(out, x)
	return out
}

// Backward accumulates dL/dW and dL/db given the input x used in the forward
// pass and gradOut = dL/dy, and returns dL/dx in a slice from a.
func (l *Linear) Backward(a *Arena, x, gradOut []float64) []float64 {
	if len(x) != l.In || len(gradOut) != l.Out {
		panic(fmt.Sprintf("nn: linear backward shapes x=%d gradOut=%d, want %d/%d", len(x), len(gradOut), l.In, l.Out))
	}
	tensor.AxpyInPlace(l.Bias.Grad.Data(), gradOut, 1)
	gradIn := a.Floats(l.In)
	tensor.MatVecBackward(l.Weight.Grad.Data(), gradIn, l.Weight.W.Data(), l.In, gradOut, x)
	return gradIn
}
