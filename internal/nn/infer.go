// Inference fast path: allocation-free InferInto methods that read the
// live parameter storage (never stale — training updates are visible
// immediately). The Forward methods are these plus output allocation and a
// cache, so the two are bit-identical by construction; naive_test.go holds
// the Dot-per-row arithmetic both are checked against.
package nn

import (
	"fmt"
	"math"

	"predictddl/internal/tensor"
)

// InferInto computes y = W x + b into dst without allocating. dst must have
// length Out and x length In (the kernel panics otherwise); dst must not
// alias x.
func (l *Linear) InferInto(dst, x []float64) {
	// Bias is 1 x Out, so Data() is its single row.
	tensor.MatVecBias(dst, l.Weight.W.Data(), l.In, x, l.Bias.W.Data())
}

// InferInto runs the network into dst without allocating; tmp1 and tmp2
// are ping-pong buffers at least as long as the widest layer output that
// must not alias x or dst.
func (m *MLP) InferInto(dst, x, tmp1, tmp2 []float64) {
	n := len(m.layers)
	cur := x
	for i, l := range m.layers {
		var out []float64
		switch {
		case i == n-1:
			out = dst[:l.Out]
		case i%2 == 0:
			out = tmp1[:l.Out]
		default:
			out = tmp2[:l.Out]
		}
		l.InferInto(out, cur)
		act := m.act(i)
		for j, v := range out {
			out[j] = act.Apply(v)
		}
		cur = out
	}
}

// GRUScratch holds the gate buffers a GRU inference step writes into, so
// steady-state callers allocate nothing.
type GRUScratch struct {
	z, r, rh, c []float64
}

// NewGRUScratch returns scratch for a cell with the given hidden size.
func NewGRUScratch(hidden int) *GRUScratch {
	return &GRUScratch{
		z:  make([]float64, hidden),
		r:  make([]float64, hidden),
		rh: make([]float64, hidden),
		c:  make([]float64, hidden),
	}
}

// InferInto computes the next hidden state into hNew without allocating.
// hNew must not alias h; s provides the gate buffers (the kernels panic on
// any other shape mismatch). Each gate pre-activation evaluates as
// (dot(W,x) + dot(U,h)) + b — MatVec seeds dst, MatVecAccBias adds the
// recurrent half and then the bias.
func (g *GRUCell) InferInto(hNew, x, h []float64, s *GRUScratch) {
	in, hid := g.InDim, g.HiddenDim
	if len(hNew) != hid {
		panic(fmt.Sprintf("nn: gru inferinto hNew=%d, want %d", len(hNew), hid))
	}
	tensor.MatVec(s.z, g.Wz.W.Data(), in, x)
	tensor.MatVecAccBias(s.z, g.Uz.W.Data(), hid, h, g.Bz.W.Data())
	tensor.MatVec(s.r, g.Wr.W.Data(), in, x)
	tensor.MatVecAccBias(s.r, g.Ur.W.Data(), hid, h, g.Br.W.Data())
	for i := range s.z {
		s.z[i] = Sigmoidf(s.z[i])
		s.r[i] = Sigmoidf(s.r[i])
	}
	for i := range s.rh {
		s.rh[i] = s.r[i] * h[i]
	}
	tensor.MatVec(s.c, g.Wc.W.Data(), in, x)
	tensor.MatVecAccBias(s.c, g.Uc.W.Data(), hid, s.rh, g.Bc.W.Data())
	for i := range s.c {
		s.c[i] = math.Tanh(s.c[i])
	}
	for i := range hNew {
		hNew[i] = (1-s.z[i])*h[i] + s.z[i]*s.c[i]
	}
}
