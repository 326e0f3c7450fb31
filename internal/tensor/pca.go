package tensor

import (
	"errors"
	"fmt"
)

// PCA projects row vectors onto their top principal components, computed
// with power iteration and deflation on the covariance matrix. It backs
// the 2-D visualization of the GHN embedding space (the paper's Fig. 5
// intuition) without any external numerics dependency.
type PCA struct {
	mean       []float64
	components *Matrix // k x d, rows are unit-norm principal directions
}

// FitPCA computes the top-k principal components of x's rows. It requires
// at least 2 rows and k ≤ min(rows−1, cols).
func FitPCA(x *Matrix, k int) (*PCA, error) {
	n, d := x.Rows(), x.Cols()
	if n < 2 {
		return nil, errors.New("tensor: PCA needs at least 2 samples")
	}
	if k < 1 || k > d || k > n-1 {
		return nil, fmt.Errorf("tensor: PCA components k=%d outside [1, min(rows-1=%d, cols=%d)]", k, n-1, d)
	}
	p := &PCA{mean: make([]float64, d)}
	for i := 0; i < n; i++ {
		AxpyInPlace(p.mean, x.Row(i), 1)
	}
	for j := range p.mean {
		p.mean[j] /= float64(n)
	}
	// Covariance matrix (d x d).
	cov := NewMatrix(d, d)
	for i := 0; i < n; i++ {
		c := SubVec(x.Row(i), p.mean)
		for a := 0; a < d; a++ {
			if c[a] == 0 {
				continue
			}
			row := cov.Row(a)
			for b := 0; b < d; b++ {
				row[b] += c[a] * c[b]
			}
		}
	}
	cov.ScaleInPlace(1 / float64(n-1))

	p.components = NewMatrix(k, d)
	rng := NewRNG(1)
	for comp := 0; comp < k; comp++ {
		v := make([]float64, d)
		rng.FillNormal(v, 0, 1)
		normalize(v)
		var lambda float64
		for iter := 0; iter < 500; iter++ {
			w, err := cov.MulVec(v)
			if err != nil {
				return nil, err
			}
			newLambda := Norm(w)
			if newLambda < 1e-14 {
				// Remaining variance is zero; keep the current direction.
				break
			}
			for j := range w {
				w[j] /= newLambda
			}
			delta := EuclideanDistance(w, v)
			v = w
			lambda = newLambda
			if delta < 1e-12 {
				break
			}
		}
		// When two eigenvalues nearly tie, 500 iterations leave the earlier
		// component short of converged and the deflated matrix's eigenvector
		// a few 1e-5 off orthogonal to it; project that out.
		for prev := 0; prev < comp; prev++ {
			u := p.components.Row(prev)
			AxpyInPlace(v, u, -Dot(v, u))
		}
		normalize(v)
		p.components.SetRow(comp, v)
		// Deflate: cov -= λ v vᵀ.
		for a := 0; a < d; a++ {
			row := cov.Row(a)
			for b := 0; b < d; b++ {
				row[b] -= lambda * v[a] * v[b]
			}
		}
	}
	return p, nil
}

func normalize(v []float64) {
	n := Norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// Transform projects one vector onto the principal components.
func (p *PCA) Transform(v []float64) []float64 {
	if len(v) != len(p.mean) {
		panic(fmt.Sprintf("tensor: PCA fitted on %d dims, got %d", len(p.mean), len(v)))
	}
	c := SubVec(v, p.mean)
	out := make([]float64, p.components.Rows())
	for i := range out {
		out[i] = Dot(p.components.Row(i), c)
	}
	return out
}
