package nn

import (
	"math"
	"testing"

	"predictddl/internal/tensor"
)

// The naive references below are the row-at-a-time loops Forward and
// Backward ran before they moved onto the blocked tensor kernels: one
// tensor.Dot per output row, one read-modify-write pass per gradient row.
// They live here, not in the package, so the kernel-backed methods are
// checked against arithmetic they do not share.

func naiveLinearForward(l *Linear, x []float64) []float64 {
	out := make([]float64, l.Out)
	bias := l.Bias.W.Row(0)
	for o := range out {
		out[o] = tensor.Dot(l.Weight.W.Row(o), x) + bias[o]
	}
	return out
}

func naiveLinearBackward(l *Linear, x, gradOut []float64) []float64 {
	gradIn := make([]float64, l.In)
	biasGrad := l.Bias.Grad.Row(0)
	for o, g := range gradOut {
		biasGrad[o] += g
		if g == 0 {
			continue
		}
		wrow, grow := l.Weight.W.Row(o), l.Weight.Grad.Row(o)
		for i, xi := range x {
			grow[i] += g * xi
			gradIn[i] += g * wrow[i]
		}
	}
	return gradIn
}

func naiveAffine(w, u, b *Param, x, h, out []float64) {
	bias := b.W.Row(0)
	for i := range out {
		out[i] = tensor.Dot(w.W.Row(i), x) + tensor.Dot(u.W.Row(i), h) + bias[i]
	}
}

// naiveGRUForward returns h' and the gates (z, r, c, rh).
func naiveGRUForward(g *GRUCell, x, h []float64) (hNew, z, r, c, rh []float64) {
	n := g.HiddenDim
	z, r, c, rh, hNew = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	naiveAffine(g.Wz, g.Uz, g.Bz, x, h, z)
	naiveAffine(g.Wr, g.Ur, g.Br, x, h, r)
	for i := range z {
		z[i] = Sigmoidf(z[i])
		r[i] = Sigmoidf(r[i])
		rh[i] = r[i] * h[i]
	}
	naiveAffine(g.Wc, g.Uc, g.Bc, x, rh, c)
	for i := range c {
		c[i] = math.Tanh(c[i])
		hNew[i] = (1-z[i])*h[i] + z[i]*c[i]
	}
	return hNew, z, r, c, rh
}

func naiveAccumulateAffine(w, u, b *Param, x, s, dPre, gradX, gradS []float64) {
	bGrad := b.Grad.Row(0)
	for i, d := range dPre {
		bGrad[i] += d
		if d == 0 {
			continue
		}
		wRow, wGrad := w.W.Row(i), w.Grad.Row(i)
		for j, xj := range x {
			wGrad[j] += d * xj
			gradX[j] += d * wRow[j]
		}
		uRow, uGrad := u.W.Row(i), u.Grad.Row(i)
		for j, sj := range s {
			uGrad[j] += d * sj
			gradS[j] += d * uRow[j]
		}
	}
}

func naiveGRUBackward(g *GRUCell, x, h, gradH []float64) (gradX, dh []float64) {
	n := g.HiddenDim
	_, z, r, c, rh := naiveGRUForward(g, x, h)
	dz := make([]float64, n)
	dc := make([]float64, n)
	dh = make([]float64, n)
	for i := 0; i < n; i++ {
		dz[i] = gradH[i] * (c[i] - h[i])
		dc[i] = gradH[i] * z[i]
		dh[i] = gradH[i] * (1 - z[i])
	}
	dcPre := make([]float64, n)
	for i := 0; i < n; i++ {
		dcPre[i] = dc[i] * (1 - c[i]*c[i])
	}
	gradX = make([]float64, g.InDim)
	drh := make([]float64, n)
	naiveAccumulateAffine(g.Wc, g.Uc, g.Bc, x, rh, dcPre, gradX, drh)
	dr := make([]float64, n)
	for i := 0; i < n; i++ {
		dr[i] = drh[i] * h[i]
		dh[i] += drh[i] * r[i]
	}
	dzPre := make([]float64, n)
	drPre := make([]float64, n)
	for i := 0; i < n; i++ {
		dzPre[i] = dz[i] * z[i] * (1 - z[i])
		drPre[i] = dr[i] * r[i] * (1 - r[i])
	}
	naiveAccumulateAffine(g.Wz, g.Uz, g.Bz, x, h, dzPre, gradX, dh)
	naiveAccumulateAffine(g.Wr, g.Ur, g.Br, x, h, drPre, gradX, dh)
	return gradX, dh
}

// kernelWidths straddle the four-row block (2, 6, 22), fill it exactly (32)
// and span many blocks (96 is the projection head's input width).
var kernelWidths = []int{2, 6, 22, 32, 96}

// zeroPatterns returns gradient vectors of length n with exact zeros placed
// so that every position of a four-row block is skipped in some vector,
// alone and together with its neighbors, plus the all-zero and no-zero
// extremes. Zeros are the ReLU-derivative case the backward kernel skips.
func zeroPatterns(rng *tensor.RNG, n int) [][]float64 {
	var out [][]float64
	add := func(zero func(i int) bool) {
		d := make([]float64, n)
		rng.FillNormal(d, 0, 1)
		for i := range d {
			if zero(i) {
				d[i] = 0
			}
		}
		out = append(out, d)
	}
	add(func(int) bool { return false })
	add(func(int) bool { return true })
	for pos := 0; pos < 4; pos++ {
		add(func(i int) bool { return i%4 == pos })
		add(func(i int) bool { return i%4 != pos })
	}
	add(func(i int) bool { return i%3 == 0 })
	add(func(i int) bool { return i < n/2 })
	d := make([]float64, n)
	rng.FillNormal(d, 0, 1)
	d[0] = math.Copysign(0, -1) // −0 is zero too: skipped, not multiplied through
	return append(out, d)
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// cloneGrads snapshots every parameter's gradient.
func cloneGrads(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = tensor.CloneVec(p.Grad.Data())
	}
	return out
}

// seedGrads fills the accumulators with non-zero values, so the test also
// sees that the kernel adds to what is there instead of overwriting it, and
// the first row with −0: a kernel that multiplied a zero row through
// instead of skipping it would turn those into +0.
func seedGrads(rng *tensor.RNG, params []*Param) {
	for _, p := range params {
		rng.FillNormal(p.Grad.Data(), 0, 1)
		for j := range p.Grad.Row(0) {
			p.Grad.Row(0)[j] = math.Copysign(0, -1)
		}
	}
}

func TestLinearMatchesNaiveBitwise(t *testing.T) {
	rng := tensor.NewRNG(21)
	var arena Arena
	for _, in := range kernelWidths {
		for _, out := range kernelWidths {
			l := NewLinear("l", in, out, rng)
			rng.FillNormal(l.Bias.W.Data(), 0, 1)
			x := make([]float64, in)
			rng.FillNormal(x, 0, 1)
			bitsEqual(t, "Forward", l.Forward(nil, x), naiveLinearForward(l, x))

			for _, d := range zeroPatterns(rng, out) {
				seedGrads(rng, l.Params())
				start := cloneGrads(l.Params())
				wantIn := naiveLinearBackward(l, x, d)
				want := cloneGrads(l.Params())
				for _, a := range []*Arena{nil, &arena} {
					for i, p := range l.Params() {
						copy(p.Grad.Data(), start[i])
					}
					a.Reset()
					bitsEqual(t, "Backward gradIn", l.Backward(a, x, d), wantIn)
					for i, p := range l.Params() {
						bitsEqual(t, "Backward "+p.Name, p.Grad.Data(), want[i])
					}
				}
			}
		}
	}
}

func TestMLPMatchesNaiveBitwise(t *testing.T) {
	rng := tensor.NewRNG(22)
	for _, sizes := range [][]int{{6, 22}, {32, 32, 32}, {96, 32, 6}, {22, 6, 2, 32}} {
		m := NewMLP("m", sizes, ReLU, Identity, rng)
		x := make([]float64, sizes[0])
		rng.FillNormal(x, 0, 1)

		// Naive forward, keeping what the naive backward needs.
		ins, pres := [][]float64{x}, [][]float64{}
		for i, l := range m.layers {
			pre := naiveLinearForward(l, ins[i])
			out := make([]float64, len(pre))
			for j, v := range pre {
				out[j] = m.act(i).Apply(v)
			}
			pres, ins = append(pres, pre), append(ins, out)
		}
		got, cache := m.Forward(nil, x)
		bitsEqual(t, "Forward", got, ins[len(ins)-1])

		for _, d := range zeroPatterns(rng, m.layers[len(m.layers)-1].Out) {
			seedGrads(rng, m.Params())
			start := cloneGrads(m.Params())
			grad := d
			for i := len(m.layers) - 1; i >= 0; i-- {
				gpre := make([]float64, len(grad))
				for j, g := range grad {
					gpre[j] = g * m.act(i).Deriv(pres[i][j], ins[i+1][j])
				}
				grad = naiveLinearBackward(m.layers[i], ins[i], gpre)
			}
			want := cloneGrads(m.Params())
			for i, p := range m.Params() {
				copy(p.Grad.Data(), start[i])
			}
			bitsEqual(t, "Backward gradIn", m.Backward(nil, cache, d), grad)
			for i, p := range m.Params() {
				bitsEqual(t, "Backward "+p.Name, p.Grad.Data(), want[i])
			}
		}
	}
}

func TestGRUMatchesNaiveBitwise(t *testing.T) {
	rng := tensor.NewRNG(23)
	var arena Arena
	for _, in := range kernelWidths {
		for _, hid := range kernelWidths {
			g := NewGRUCell("g", in, hid, rng)
			for _, b := range []*Param{g.Bz, g.Br, g.Bc} {
				rng.FillNormal(b.W.Data(), 0, 1)
			}
			x, h := make([]float64, in), make([]float64, hid)
			rng.FillNormal(x, 0, 1)
			rng.FillNormal(h, 0, 1)
			want, _, _, _, _ := naiveGRUForward(g, x, h)

			for _, gradH := range zeroPatterns(rng, hid) {
				seedGrads(rng, g.Params())
				start := cloneGrads(g.Params())
				wantX, wantH := naiveGRUBackward(g, x, h, gradH)
				wantGrads := cloneGrads(g.Params())
				for _, a := range []*Arena{nil, &arena} {
					for i, p := range g.Params() {
						copy(p.Grad.Data(), start[i])
					}
					a.Reset()
					got, cache := g.Forward(a, x, h)
					bitsEqual(t, "Forward", got, want)
					gotX, gotH := g.Backward(a, cache, gradH)
					bitsEqual(t, "Backward gradX", gotX, wantX)
					bitsEqual(t, "Backward gradH", gotH, wantH)
					for i, p := range g.Params() {
						bitsEqual(t, "Backward "+p.Name, p.Grad.Data(), wantGrads[i])
					}
				}
			}
		}
	}
}
