package nn

import (
	"fmt"

	"predictddl/internal/tensor"
)

// MLP is a multi-layer perceptron: a stack of Linear layers with a hidden
// activation between layers and an optional output activation. GHN-2 uses
// MLPs as the message functions in Eq. 3–4; the regression engine uses an
// MLP as one of its four candidate models.
type MLP struct {
	layers    []*Linear
	hiddenAct Activation
	outputAct Activation
}

// MLPCache stores the per-invocation intermediates Backward needs. One cache
// is produced per Forward call, so a shared MLP can appear many times in a
// computation graph. It is a value of three slice headers: every layer's
// pre- and post-activation sit back to back in one vector each, and layer
// i's input is x for i == 0 and layer i-1's stretch of out otherwise.
type MLPCache struct {
	x   []float64 // network input
	pre []float64 // pre-activations, layers concatenated
	out []float64 // post-activations, layers concatenated
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [32, 64, 32]
// produces two linear layers 32→64→32. hidden is applied between layers,
// output after the last layer (use Identity for a plain linear head).
func NewMLP(name string, sizes []int, hidden, output Activation, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least 2 sizes, got %v", sizes))
	}
	m := &MLP{hiddenAct: hidden, outputAct: output}
	for i := 0; i < len(sizes)-1; i++ {
		m.layers = append(m.layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], rng))
	}
	return m
}

// Params returns all learnable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// width is the summed output width of all layers: the length of an
// MLPCache's pre and out vectors.
func (m *MLP) width() int {
	n := 0
	for _, l := range m.layers {
		n += l.Out
	}
	return n
}

// act returns the activation that follows layer i.
func (m *MLP) act(i int) Activation {
	if i == len(m.layers)-1 {
		return m.outputAct
	}
	return m.hiddenAct
}

// Forward runs the network and returns the output along with the cache
// required by Backward; both live in a (nil: the heap).
func (m *MLP) Forward(a *Arena, x []float64) ([]float64, MLPCache) {
	w := m.width()
	c := MLPCache{x: x, pre: a.Floats(w), out: a.Floats(w)}
	cur, off := x, 0
	for i, l := range m.layers {
		pre, out := c.pre[off:off+l.Out], c.out[off:off+l.Out:off+l.Out]
		l.InferInto(pre, cur)
		act := m.act(i)
		for j, v := range pre {
			out[j] = act.Apply(v)
		}
		cur, off = out, off+l.Out
	}
	return cur, c
}

// Infer runs the network without keeping a cache (prediction-only path):
// Forward on the heap with the cache dropped. Steady-state callers should
// use InferInto with reused scratch.
func (m *MLP) Infer(x []float64) []float64 {
	out, _ := m.Forward(nil, x)
	return out
}

// Backward propagates gradOut = dL/d(output) through the cached invocation,
// accumulating parameter gradients, and returns dL/d(input) in a slice
// from a.
func (m *MLP) Backward(a *Arena, c MLPCache, gradOut []float64) []float64 {
	grad, off := gradOut, m.width()
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		off -= l.Out
		pre, out := c.pre[off:off+l.Out], c.out[off:off+l.Out]
		in := c.x
		if i > 0 {
			in = c.out[off-l.In : off]
		}
		act := m.act(i)
		gpre := a.Floats(l.Out)
		for j, g := range grad {
			gpre[j] = g * act.Deriv(pre[j], out[j])
		}
		grad = l.Backward(a, in, gpre)
	}
	return grad
}
