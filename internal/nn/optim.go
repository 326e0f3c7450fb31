package nn

import (
	"math"

	"predictddl/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter; gradients are not reset.
	Step(params []*Param)
}

// Adam is the Adam optimizer (Kingma & Ba), the default for GHN-2 training.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns Adam with the canonical defaults β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.NewMatrix(p.W.Rows(), p.W.Cols())
			a.m[p] = m
			a.v[p] = tensor.NewMatrix(p.W.Rows(), p.W.Cols())
		}
		v := a.v[p]
		w, g, md, vd := p.W.Data(), p.Grad.Data(), m.Data(), v.Data()
		for i := range w {
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g[i]
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g[i]*g[i]
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			w[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
