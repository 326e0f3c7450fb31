package nn

import (
	"testing"

	"predictddl/internal/tensor"
)

// After Reset the arena hands out the same memory again, zeroed, and stops
// allocating once it has grown to the step's size.
func TestArenaResetReusesMemory(t *testing.T) {
	var a Arena
	step := func() (first, last []float64) {
		a.Reset()
		first = a.Floats(32)
		for i := 0; i < 300; i++ { // 300·96 floats: past the first block
			last = a.Floats(96)
			for j := range last {
				last[j] = 1 // dirty it for the next step
			}
		}
		return first, last
	}
	step() // grows mid-step; the big block is adopted
	step() // may still finish growing
	f1, l1 := step()
	f2, l2 := step()
	if &f1[0] != &f2[0] || &l1[0] != &l2[0] {
		t.Fatal("a steady-state step did not reuse the previous step's memory")
	}
	for _, v := range l2 {
		if v != 1 {
			t.Fatal("test bug: last slice not dirtied")
		}
	}
	a.Reset()
	for _, v := range a.Floats(96 * 300) {
		if v != 0 {
			t.Fatal("Floats returned dirty memory after Reset")
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { step() }); allocs != 0 {
		t.Fatalf("steady-state step allocates %v times, want 0", allocs)
	}
}

// Slices handed out between two Resets never overlap — each is filled with
// its own index and must still hold it after every later call — and their
// capacity stops at their own end; both hold across the block growing
// mid-step.
func TestArenaSlicesNeverAlias(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ { // round 0 grows, later rounds reuse
		a.Reset()
		var got [][]float64
		for i := 0; i < 400; i++ {
			n := 1 + (i*37)%200
			s := a.Floats(n)
			if len(s) != n || cap(s) != n {
				t.Fatalf("Floats(%d): len %d cap %d", n, len(s), cap(s))
			}
			for j := range s {
				s[j] = float64(i)
			}
			got = append(got, s)
		}
		for i, s := range got {
			for _, v := range s {
				if v != float64(i) {
					t.Fatalf("round %d: slice %d was overwritten by a later Floats call", round, i)
				}
			}
		}
	}
}

// A nil arena is the heap: every module runs with it, and gives the same
// bits as with a real one.
func TestNilArenaIsTheHeap(t *testing.T) {
	var none *Arena
	none.Reset()
	if s := none.Floats(5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("nil Floats(5): len %d cap %d", len(s), cap(s))
	}
	rng := tensor.NewRNG(8)
	m := NewMLP("m", []int{6, 22, 6}, ReLU, Identity, rng)
	g := NewGRUCell("g", 6, 6, rng)
	x, h := make([]float64, 6), make([]float64, 6)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(h, 0, 1)
	run := func(a *Arena) (out []float64, grads [][]float64) {
		ZeroGrads(append(m.Params(), g.Params()...))
		y, mc := m.Forward(a, x)
		hNew, gc := g.Forward(a, y, h)
		_, grad := HuberLoss(a, hNew, x, 1)
		gy, _ := g.Backward(a, gc, grad)
		m.Backward(a, mc, gy)
		return tensor.CloneVec(hNew), cloneGrads(append(m.Params(), g.Params()...))
	}
	wantOut, wantGrads := run(nil)
	gotOut, gotGrads := run(new(Arena))
	bitsEqual(t, "output", gotOut, wantOut)
	for i := range wantGrads {
		bitsEqual(t, "gradient", gotGrads[i], wantGrads[i])
	}
}
