package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// projectedVariances returns the sample variance of x's rows along each
// fitted component.
func projectedVariances(p *PCA, x *Matrix) []float64 {
	k := p.components.Rows()
	coords := make([][]float64, k)
	for i := 0; i < x.Rows(); i++ {
		for c, v := range p.Transform(x.Row(i)) {
			coords[c] = append(coords[c], v)
		}
	}
	vars := make([]float64, k)
	for c := range vars {
		sd := Std(coords[c])
		vars[c] = sd * sd
	}
	return vars
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points along (1,1)/√2 with small orthogonal noise: PC1 must align
	// with the diagonal.
	rng := NewRNG(1)
	x := NewMatrix(200, 2)
	for i := 0; i < 200; i++ {
		tt := rng.Normal(0, 3)
		noise := rng.Normal(0, 0.1)
		x.Set(i, 0, tt+noise)
		x.Set(i, 1, tt-noise)
	}
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc1 := p.components.Row(0)
	align := math.Abs(Dot(pc1, []float64{1 / math.Sqrt2, 1 / math.Sqrt2}))
	if align < 0.999 {
		t.Fatalf("PC1 alignment with diagonal = %v", align)
	}
	vars := projectedVariances(p, x)
	if vars[0] < 50*vars[1] {
		t.Fatalf("variance ratio too small: %v", vars)
	}
}

func TestPCAValidation(t *testing.T) {
	if _, err := FitPCA(NewMatrix(1, 3), 1); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := FitPCA(NewMatrix(5, 3), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := FitPCA(NewMatrix(5, 3), 4); err == nil {
		t.Fatal("k > cols accepted")
	}
	if _, err := FitPCA(NewMatrix(3, 10), 3); err == nil {
		t.Fatal("k > rows-1 accepted")
	}
}

func TestPCATransformShapes(t *testing.T) {
	rng := NewRNG(2)
	x := rng.GlorotMatrix(20, 6)
	p, err := FitPCA(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		if out := p.Transform(x.Row(i)); len(out) != 3 {
			t.Fatalf("row %d projected to %d coordinates, want 3", i, len(out))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dim Transform accepted")
		}
	}()
	p.Transform([]float64{1})
}

// Property: projections onto distinct components are (near) uncorrelated
// and components are orthonormal.
func TestPCAOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		x := rng.GlorotMatrix(30, 5)
		// Add scale so the covariance is non-degenerate.
		for i := 0; i < x.Rows(); i++ {
			row := x.Row(i)
			for j := range row {
				row[j] *= float64(j + 1)
			}
		}
		p, err := FitPCA(x, 3)
		if err != nil {
			return false
		}
		for a := 0; a < 3; a++ {
			va := p.components.Row(a)
			if !(math.Abs(Norm(va)-1) <= 1e-6) { // also false for NaN/Inf
				return false
			}
			for b := a + 1; b < 3; b++ {
				if math.Abs(Dot(va, p.components.Row(b))) > 1e-5 {
					return false
				}
			}
		}
		// Variances are non-increasing.
		vars := projectedVariances(p, x)
		for i := 1; i < len(vars); i++ {
			if vars[i] > vars[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	// Seeded so tier-1 draws the same 30 matrices every run. The named seeds
	// have near-tied eigenvalue pairs (0.9214/0.9085, 0.5023/0.4988,
	// 1.0891/1.0716) and failed the dot-product bound before FitPCA
	// re-orthogonalised its components.
	for _, seed := range []int64{-5591119224451202755, -1794630548852716124, -3108587704437491566} {
		if !f(seed) {
			t.Errorf("seed %d: components not orthonormal", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPCAZeroVarianceData(t *testing.T) {
	// All-identical rows: variance is zero, transform maps to ~origin.
	x := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		x.SetRow(i, []float64{1, 2, 3})
	}
	p, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Transform([]float64{1, 2, 3})
	for _, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("constant data projected to %v", out)
		}
	}
}
