package nn

import (
	"testing"

	"predictddl/internal/tensor"
)

// Every inference entry point — the allocating reference (Infer) and the
// scratch-based fast path (InferInto) — must reproduce the training Forward
// pass bit-for-bit.
func TestLinearInferIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("l", 7, 5, rng)
	x := rng.GlorotMatrix(1, 7).Row(0)
	want := l.Forward(x)
	got := make([]float64, 5)
	l.InferInto(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InferInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMLPInferIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(2)
	for _, sizes := range [][]int{{6, 9}, {6, 9, 4}, {6, 9, 7, 3}} {
		m := NewMLP("m", sizes, ReLU, Identity, rng)
		x := rng.GlorotMatrix(1, sizes[0]).Row(0)
		want, _ := m.Forward(x)
		got := make([]float64, m.OutDim())
		tmp1 := make([]float64, m.MaxDim())
		tmp2 := make([]float64, m.MaxDim())
		m.InferInto(got, x, tmp1, tmp2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sizes %v: InferInto[%d] = %v, want %v", sizes, i, got[i], want[i])
			}
		}
	}
}

func TestGRUInferIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := NewGRUCell("g", 5, 8, rng)
	x := rng.GlorotMatrix(1, 5).Row(0)
	h := rng.GlorotMatrix(1, 8).Row(0)
	want, _ := g.Forward(x, h)

	// Reference Infer (the trivial cache-free fix).
	ref := g.Infer(x, h)
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("Infer[%d] = %v, want %v", i, ref[i], want[i])
		}
	}

	// Scratch-based fast path.
	got := make([]float64, 8)
	s := NewGRUScratch(8)
	g.InferInto(got, x, h, s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InferInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// GRUCell.Infer must not allocate the backprop cache: its allocation count
// is the five result/gate slices, nothing more. The regression this pins
// down: Infer used to call Forward and discard a GRUCache plus its cached
// slices.
func TestGRUInferAllocBound(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := NewGRUCell("g", 16, 16, rng)
	x := rng.GlorotMatrix(1, 16).Row(0)
	h := rng.GlorotMatrix(1, 16).Row(0)
	allocs := testing.AllocsPerRun(100, func() { g.Infer(x, h) })
	if allocs > 5 {
		t.Fatalf("Infer allocates %v per run, want <= 5 (cache-free)", allocs)
	}
}

// The InferInto fast paths must be allocation-free with reused scratch.
func TestInferIntoAllocFree(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := NewLinear("l", 16, 16, rng)
	m := NewMLP("m", []int{16, 16, 16}, ReLU, Identity, rng)
	g := NewGRUCell("g", 16, 16, rng)
	x := rng.GlorotMatrix(1, 16).Row(0)
	h := rng.GlorotMatrix(1, 16).Row(0)
	dst := make([]float64, 16)
	tmp1 := make([]float64, 16)
	tmp2 := make([]float64, 16)
	s := NewGRUScratch(16)
	allocs := testing.AllocsPerRun(100, func() {
		l.InferInto(dst, x)
		m.InferInto(dst, x, tmp1, tmp2)
		g.InferInto(dst, x, h, s)
	})
	if allocs != 0 {
		t.Fatalf("InferInto allocates %v per run, want 0", allocs)
	}
}
