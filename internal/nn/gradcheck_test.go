package nn

import (
	"math"
	"testing"

	"predictddl/internal/tensor"
)

// numericalGrad computes the central-difference derivative of loss() with
// respect to one scalar of a parameter matrix.
func numericalGrad(loss func() float64, w *tensor.Matrix, i, j int) float64 {
	const h = 1e-5
	orig := w.At(i, j)
	w.Set(i, j, orig+h)
	lp := loss()
	w.Set(i, j, orig-h)
	lm := loss()
	w.Set(i, j, orig)
	return (lp - lm) / (2 * h)
}

func checkParamGrads(t *testing.T, params []*Param, loss func() float64, runBackward func(), tol float64) {
	t.Helper()
	ZeroGrads(params)
	runBackward()
	for _, p := range params {
		for i := 0; i < p.W.Rows(); i++ {
			for j := 0; j < p.W.Cols(); j++ {
				want := numericalGrad(loss, p.W, i, j)
				got := p.Grad.At(i, j)
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("%s grad[%d][%d] = %v, numerical %v", p.Name, i, j, got, want)
				}
			}
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("lin", 4, 3, rng)
	x := make([]float64, 4)
	target := make([]float64, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)

	loss := func() float64 {
		v, _ := MSELoss(l.Forward(nil, x), target)
		return v
	}
	checkParamGrads(t, l.Params(), loss, func() {
		_, g := MSELoss(l.Forward(nil, x), target)
		l.Backward(nil, x, g)
	}, 1e-6)
}

func TestLinearInputGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("lin", 5, 2, rng)
	x := make([]float64, 5)
	target := make([]float64, 2)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)

	ZeroGrads(l.Params())
	_, g := MSELoss(l.Forward(nil, x), target)
	gradIn := l.Backward(nil, x, g)

	const h = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp, _ := MSELoss(l.Forward(nil, x), target)
		x[i] = orig - h
		lm, _ := MSELoss(l.Forward(nil, x), target)
		x[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(gradIn[i]-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, gradIn[i], want)
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, sigmoid{}} {
		rng := tensor.NewRNG(3)
		m := NewMLP("mlp", []int{3, 5, 2}, act, Identity, rng)
		x := make([]float64, 3)
		target := make([]float64, 2)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(target, 0, 1)

		loss := func() float64 {
			v, _ := MSELoss(m.Infer(x), target)
			return v
		}
		// ReLU kinks make finite differences unreliable exactly at 0; the
		// random inputs avoid that set with probability 1.
		checkParamGrads(t, m.Params(), loss, func() {
			out, c := m.Forward(nil, x)
			_, g := MSELoss(out, target)
			m.Backward(nil, c, g)
		}, 1e-5)
	}
}

func TestGRUGradCheckParams(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := NewGRUCell("gru", 3, 4, rng)
	x := make([]float64, 3)
	h := make([]float64, 4)
	target := make([]float64, 4)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(h, 0, 1)
	rng.FillNormal(target, 0, 1)

	loss := func() float64 {
		out, _ := g.Forward(nil, x, h)
		v, _ := MSELoss(out, target)
		return v
	}
	checkParamGrads(t, g.Params(), loss, func() {
		out, c := g.Forward(nil, x, h)
		_, grad := MSELoss(out, target)
		g.Backward(nil, c, grad)
	}, 1e-5)
}

func TestGRUGradCheckInputs(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := NewGRUCell("gru", 3, 4, rng)
	x := make([]float64, 3)
	h := make([]float64, 4)
	target := make([]float64, 4)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(h, 0, 1)
	rng.FillNormal(target, 0, 1)

	ZeroGrads(g.Params())
	out, c := g.Forward(nil, x, h)
	_, grad := MSELoss(out, target)
	gx, gh := g.Backward(nil, c, grad)

	const eps = 1e-5
	lossAt := func() float64 {
		o, _ := g.Forward(nil, x, h)
		v, _ := MSELoss(o, target)
		return v
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := lossAt()
		x[i] = orig - eps
		lm := lossAt()
		x[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(gx[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dL/dx[%d] = %v, numerical %v", i, gx[i], want)
		}
	}
	for i := range h {
		orig := h[i]
		h[i] = orig + eps
		lp := lossAt()
		h[i] = orig - eps
		lm := lossAt()
		h[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(gh[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dL/dh[%d] = %v, numerical %v", i, gh[i], want)
		}
	}
}

// Gradients must accumulate across invocations of a shared module — GHN-2
// applies the same MLP to every node, so this behaviour is load-bearing.
func TestGradientAccumulationAcrossCalls(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewLinear("lin", 2, 2, rng)
	x1 := []float64{1, 0}
	x2 := []float64{0, 1}
	g := []float64{1, 1}

	ZeroGrads(l.Params())
	l.Backward(nil, x1, g)
	once, _ := tensor.NewMatrixFrom(2, 2, l.Weight.Grad.Data()) // a copy
	l.Backward(nil, x2, g)
	twice := l.Weight.Grad

	// After the second call, grads from the first call must still be there.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if twice.At(i, j) == once.At(i, j) && once.At(i, j) == 0 {
				continue
			}
			if twice.At(i, j) < once.At(i, j) {
				t.Fatalf("gradient at (%d,%d) shrank after accumulation", i, j)
			}
		}
	}
}
