package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotKnown(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNormAndDistance(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("distance = %v, want 5", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("identical vectors similarity = %v, want 1", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("orthogonal vectors similarity = %v, want 0", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("opposite vectors similarity = %v, want -1", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-norm similarity = %v, want 0", got)
	}
}

func TestCosineSimilarityScaleInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := make([]float64, 8)
		b := make([]float64, 8)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		s := rng.Uniform(0.1, 10)
		scaled := CloneVec(a)
		for i := range scaled {
			scaled[i] *= s
		}
		return math.Abs(CosineSimilarity(a, b)-CosineSimilarity(scaled, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimilarityBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := make([]float64, 16)
		b := make([]float64, 16)
		rng.FillNormal(a, 0, 3)
		rng.FillNormal(b, 0, 3)
		c := CosineSimilarity(a, b)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVecArithmetic(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := SubVec(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("SubVec = %v", got)
	}
	dst := CloneVec(a)
	AxpyInPlace(dst, b, 2)
	if dst[0] != 7 || dst[1] != 12 {
		t.Fatalf("Axpy = %v", dst)
	}
	if &dst[0] == &a[0] {
		t.Fatal("CloneVec must copy")
	}
}

func TestConcat(t *testing.T) {
	got := Concat([]float64{1}, nil, []float64{2, 3})
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Concat = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got, want)
		}
	}
}

func TestStats(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(v); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty-input conventions violated")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if g.LogNormal(0, 0.5) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestGlorotMatrixBounds(t *testing.T) {
	g := NewRNG(5)
	m := g.GlorotMatrix(10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}
