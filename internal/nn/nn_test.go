package nn

import (
	"math"
	"testing"

	"predictddl/internal/tensor"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		act      Activation
		x, want  float64
		wantName string
	}{
		{Identity, 3.5, 3.5, "identity"},
		{ReLU, -2, 0, "relu"},
		{ReLU, 2, 2, "relu"},
		{Tanh, 0, 0, "tanh"},
		{sigmoid{}, 0, 0.5, "sigmoid"},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.Apply(%v) = %v, want %v", c.act.Name(), c.x, got, c.want)
		}
		if c.act.Name() != c.wantName {
			t.Errorf("Name = %q, want %q", c.act.Name(), c.wantName)
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	if got := Sigmoidf(1000); got != 1 {
		t.Fatalf("Sigmoidf(1000) = %v, want 1", got)
	}
	if got := Sigmoidf(-1000); got != 0 {
		t.Fatalf("Sigmoidf(-1000) = %v, want 0", got)
	}
	if math.IsNaN(Sigmoidf(710)) || math.IsNaN(Sigmoidf(-710)) {
		t.Fatal("sigmoid overflowed to NaN")
	}
}

func TestMSELossKnown(t *testing.T) {
	loss, grad := MSELoss([]float64{1, 2}, []float64{0, 0})
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Fatalf("grad = %v, want [1 2]", grad)
	}
}

func TestHuberLossRegimes(t *testing.T) {
	// Inside delta: quadratic, matches 0.5 d².
	loss, grad := HuberLoss(nil, []float64{0.5}, []float64{0}, 1)
	if math.Abs(loss-0.125) > 1e-12 || math.Abs(grad[0]-0.5) > 1e-12 {
		t.Fatalf("quadratic regime: loss=%v grad=%v", loss, grad)
	}
	// Outside delta: linear with slope ±delta.
	loss, grad = HuberLoss(nil, []float64{5}, []float64{0}, 1)
	if math.Abs(loss-4.5) > 1e-12 || math.Abs(grad[0]-1) > 1e-12 {
		t.Fatalf("linear regime: loss=%v grad=%v", loss, grad)
	}
	_, grad = HuberLoss(nil, []float64{-5}, []float64{0}, 1)
	if math.Abs(grad[0]+1) > 1e-12 {
		t.Fatalf("negative tail grad = %v, want -1", grad[0])
	}
}

func TestAdamReducesMLPLoss(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewMLP("m", []int{2, 8, 1}, Tanh, Identity, rng)
	opt := NewAdam(0.01)
	params := m.Params()

	// Learn XOR-ish regression: y = x0*x1.
	sample := func() ([]float64, []float64) {
		x := []float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1)}
		return x, []float64{x[0] * x[1]}
	}
	avgLoss := func() float64 {
		var s float64
		probe := tensor.NewRNG(123)
		for i := 0; i < 50; i++ {
			x := []float64{probe.Uniform(-1, 1), probe.Uniform(-1, 1)}
			l, _ := MSELoss(m.Infer(x), []float64{x[0] * x[1]})
			s += l
		}
		return s / 50
	}
	before := avgLoss()
	for i := 0; i < 2000; i++ {
		x, y := sample()
		out, c := m.Forward(nil, x)
		_, g := MSELoss(out, y)
		ZeroGrads(params)
		m.Backward(nil, c, g)
		opt.Step(params)
	}
	after := avgLoss()
	if after > before/4 {
		t.Fatalf("Adam training did not reduce loss enough: before=%v after=%v", before, after)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad.Set(0, 0, 3)
	p.Grad.Set(0, 1, 4)
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if got := GradNorm([]*Param{p}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold gradients are untouched.
	p.Grad.Set(0, 0, 0.1)
	p.Grad.Set(0, 1, 0)
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.At(0, 0) != 0.1 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestCheckFinite(t *testing.T) {
	p := NewParam("w", 1, 1)
	if err := CheckFinite([]*Param{p}); err != nil {
		t.Fatalf("finite params flagged: %v", err)
	}
	p.W.Set(0, 0, math.NaN())
	if err := CheckFinite([]*Param{p}); err == nil {
		t.Fatal("NaN weight not detected")
	}
	p.W.Set(0, 0, 0)
	p.Grad.Set(0, 0, math.Inf(1))
	if err := CheckFinite([]*Param{p}); err == nil {
		t.Fatal("Inf gradient not detected")
	}
}

func TestMLPInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewMLP("m", []int{4, 6, 3}, ReLU, Tanh, rng)
	x := make([]float64, 4)
	rng.FillNormal(x, 0, 1)
	a, _ := m.Forward(nil, x)
	b := m.Infer(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Infer must match Forward")
		}
	}
}

func TestGRUInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := NewGRUCell("g", 3, 3, rng)
	x := make([]float64, 3)
	h := make([]float64, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(h, 0, 1)
	a, _ := g.Forward(nil, x, h)
	b, _, _, _, _ := naiveGRUForward(g, x, h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward must match the Dot-per-row reference")
		}
	}
}

func TestGRUInterpolationProperty(t *testing.T) {
	// h' is a convex combination of h and candidate c, so it must stay in
	// [-maxAbs, maxAbs] when both are bounded by maxAbs (tanh candidate is
	// bounded by 1).
	rng := tensor.NewRNG(4)
	g := NewGRUCell("g", 2, 4, rng)
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 2)
		h := make([]float64, 4)
		rng.FillNormal(x, 0, 2)
		rng.FillUniform(h, -1, 1)
		out, _ := g.Forward(nil, x, h)
		for i, v := range out {
			if v < -1-1e-9 || v > 1+1e-9 {
				t.Fatalf("GRU output %v at %d escapes [-1,1] for bounded state", v, i)
			}
		}
	}
}
