package nn

import (
	"fmt"

	"predictddl/internal/tensor"
)

// GRUCell is a gated recurrent unit, the node-state update function in
// GHN-2's GatedGNN (Eq. 3 of the paper):
//
//	z  = σ(Wz x + Uz h + bz)        update gate
//	r  = σ(Wr x + Ur h + br)        reset gate
//	c  = tanh(Wc x + Uc (r⊙h) + bc) candidate state
//	h' = (1−z)⊙h + z⊙c
type GRUCell struct {
	InDim, HiddenDim       int
	Wz, Wr, Wc, Uz, Ur, Uc *Param // Hidden x In (W*) and Hidden x Hidden (U*)
	Bz, Br, Bc             *Param // 1 x Hidden
}

// GRUCache holds one invocation's intermediates for Backward: the inputs
// and the gate buffers InferInto filled.
type GRUCache struct {
	x, h []float64
	GRUScratch
}

// NewGRUCell returns a Glorot-initialized GRU cell.
func NewGRUCell(name string, in, hidden int, rng *tensor.RNG) *GRUCell {
	g := &GRUCell{InDim: in, HiddenDim: hidden}
	mk := func(suffix string, rows, cols int) *Param {
		p := NewParam(fmt.Sprintf("%s.%s", name, suffix), rows, cols)
		copy(p.W.Data(), rng.GlorotMatrix(rows, cols).Data())
		return p
	}
	g.Wz = mk("wz", hidden, in)
	g.Wr = mk("wr", hidden, in)
	g.Wc = mk("wc", hidden, in)
	g.Uz = mk("uz", hidden, hidden)
	g.Ur = mk("ur", hidden, hidden)
	g.Uc = mk("uc", hidden, hidden)
	g.Bz = NewParam(name+".bz", 1, hidden)
	g.Br = NewParam(name+".br", 1, hidden)
	g.Bc = NewParam(name+".bc", 1, hidden)
	return g
}

// Params returns the cell's learnable parameters.
func (g *GRUCell) Params() []*Param {
	return []*Param{g.Wz, g.Wr, g.Wc, g.Uz, g.Ur, g.Uc, g.Bz, g.Br, g.Bc}
}

// Forward computes the next hidden state h' from input x and previous state
// h, returning h' and the cache needed by Backward. It is InferInto writing
// into buffers from a (nil: the heap) that the cache then keeps.
func (g *GRUCell) Forward(a *Arena, x, h []float64) ([]float64, GRUCache) {
	if len(x) != g.InDim || len(h) != g.HiddenDim {
		panic(fmt.Sprintf("nn: gru forward shapes x=%d h=%d, want %d/%d", len(x), len(h), g.InDim, g.HiddenDim))
	}
	n := g.HiddenDim
	cache := GRUCache{x: x, h: h, GRUScratch: GRUScratch{z: a.Floats(n), r: a.Floats(n), rh: a.Floats(n), c: a.Floats(n)}}
	hNew := a.Floats(n)
	g.InferInto(hNew, x, h, &cache.GRUScratch)
	return hNew, cache
}

// Backward consumes gradH = dL/dh' and returns (dL/dx, dL/dh) in slices
// from a, accumulating parameter gradients.
func (g *GRUCell) Backward(a *Arena, cache GRUCache, gradH []float64) (gradX, gradHPrev []float64) {
	n := g.HiddenDim
	x, h, z, r, c, rh := cache.x, cache.h, cache.z, cache.r, cache.c, cache.rh

	dz := a.Floats(n)
	dc := a.Floats(n)
	dh := a.Floats(n)
	for i := 0; i < n; i++ {
		dz[i] = gradH[i] * (c[i] - h[i])
		dc[i] = gradH[i] * z[i]
		dh[i] = gradH[i] * (1 - z[i])
	}
	// Candidate pre-activation gradient.
	dcPre := a.Floats(n)
	for i := 0; i < n; i++ {
		dcPre[i] = dc[i] * (1 - c[i]*c[i])
	}
	gradX = a.Floats(g.InDim)
	drh := a.Floats(n)
	accumulateAffine(g.Wc, g.Uc, g.Bc, x, rh, dcPre, gradX, drh)
	// Reset-gate contribution: rh = r⊙h.
	dr := a.Floats(n)
	for i := 0; i < n; i++ {
		dr[i] = drh[i] * h[i]
		dh[i] += drh[i] * r[i]
	}
	dzPre := a.Floats(n)
	drPre := a.Floats(n)
	for i := 0; i < n; i++ {
		dzPre[i] = dz[i] * z[i] * (1 - z[i])
		drPre[i] = dr[i] * r[i] * (1 - r[i])
	}
	accumulateAffine(g.Wz, g.Uz, g.Bz, x, h, dzPre, gradX, dh)
	accumulateAffine(g.Wr, g.Ur, g.Br, x, h, drPre, gradX, dh)
	return gradX, dh
}

// accumulateAffine handles the shared backward pattern for
// pre = W x + U s + b: given dPre it accumulates dW, dU, db and adds the
// input gradients into gradX and gradS. W and U own disjoint gradients, so
// the two halves are independent kernel calls.
func accumulateAffine(w, u, b *Param, x, s, dPre, gradX, gradS []float64) {
	tensor.AxpyInPlace(b.Grad.Data(), dPre, 1)
	tensor.MatVecBackward(w.Grad.Data(), gradX, w.W.Data(), len(x), dPre, x)
	tensor.MatVecBackward(u.Grad.Data(), gradS, u.W.Data(), len(s), dPre, s)
}
