package nn

import (
	"testing"

	"predictddl/internal/tensor"
)

// The scratch-based fast path (InferInto) must reproduce the training
// Forward pass bit-for-bit. Both now run the same tensor kernel, so the
// expected values come from the naive Dot-per-row references in
// naive_test.go wherever one exists.
func TestLinearInferIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("l", 7, 5, rng)
	x := rng.GlorotMatrix(1, 7).Row(0)
	want := naiveLinearForward(l, x)
	bitsEqual(t, "Forward", l.Forward(nil, x), want)
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
		want, _ := m.Forward(nil, x)
		got := make([]float64, sizes[len(sizes)-1])
		tmp1 := make([]float64, 9) // the widest layer in every case
		tmp2 := make([]float64, 9)
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
	want, _ := g.Forward(nil, x, h)

	// The Dot-per-row reference.
	ref, _, _, _, _ := naiveGRUForward(g, x, h)
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("naive[%d] = %v, want %v", i, ref[i], want[i])
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

// Forward on the heap allocates the four gate buffers and the new state,
// nothing more: the GRUCache is a value holding their headers, not a sixth
// allocation. (With an arena it allocates nothing; see TestArena*.)
func TestGRUForwardHeapAllocBound(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := NewGRUCell("g", 16, 16, rng)
	x := rng.GlorotMatrix(1, 16).Row(0)
	h := rng.GlorotMatrix(1, 16).Row(0)
	allocs := testing.AllocsPerRun(100, func() { g.Forward(nil, x, h) })
	if allocs > 5 {
		t.Fatalf("Forward(nil) allocates %v per run, want <= 5 (gates + state)", allocs)
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
