package tensor

import (
	"math"
	"testing"
)

// The 4-row-unrolled kernels must match the scalar Dot reference
// bit-for-bit, across row counts that straddle the unroll width.
func TestMatVecKernelsMatchDotBitwise(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33} {
		for _, cols := range []int{1, 3, 17, 32} {
			rng := NewRNG(int64(rows*100 + cols))
			w := rng.GlorotMatrix(rows, cols)
			u := rng.GlorotMatrix(rows, cols)
			x := rng.GlorotMatrix(1, cols).Row(0)
			h := rng.GlorotMatrix(1, cols).Row(0)
			bias := rng.GlorotMatrix(1, rows).Row(0)

			got := make([]float64, rows)
			MatVec(got, w.Data(), cols, x)
			for r := 0; r < rows; r++ {
				if want := Dot(w.Row(r), x); got[r] != want {
					t.Fatalf("MatVec rows=%d cols=%d row %d: %v != %v", rows, cols, r, got[r], want)
				}
			}

			MatVecBias(got, w.Data(), cols, x, bias)
			for r := 0; r < rows; r++ {
				if want := Dot(w.Row(r), x) + bias[r]; got[r] != want {
					t.Fatalf("MatVecBias rows=%d cols=%d row %d: %v != %v", rows, cols, r, got[r], want)
				}
			}

			// Seeded accumulate: dst = dot(w,x), then += dot(u,h) + bias must
			// associate as (dot+dot)+bias, matching the GRU affine.
			MatVec(got, w.Data(), cols, x)
			MatVecAccBias(got, u.Data(), cols, h, bias)
			for r := 0; r < rows; r++ {
				if want := Dot(w.Row(r), x) + Dot(u.Row(r), h) + bias[r]; got[r] != want {
					t.Fatalf("MatVecAccBias rows=%d cols=%d row %d: %v != %v", rows, cols, r, got[r], want)
				}
			}
		}
	}
}

// Kernel calls with steady-state buffers must not allocate.
func TestMatVecKernelsAllocFree(t *testing.T) {
	const rows, cols = 32, 32
	rng := NewRNG(11)
	w := rng.GlorotMatrix(rows, cols).Data()
	x := rng.GlorotMatrix(1, cols).Row(0)
	bias := rng.GlorotMatrix(1, rows).Row(0)
	dst := make([]float64, rows)
	allocs := testing.AllocsPerRun(100, func() {
		MatVecBias(dst, w, cols, x, bias)
		MatVecAccBias(dst, w, cols, x, bias)
	})
	if allocs != 0 {
		t.Fatalf("kernels allocated %v times per run, want 0", allocs)
	}
}

func TestMatVecKernelShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatVec(make([]float64, 4), make([]float64, 4*3), 3, make([]float64, 5))
}

func BenchmarkMatVecBias32x32(b *testing.B) {
	const rows, cols = 32, 32
	rng := NewRNG(3)
	w := rng.GlorotMatrix(rows, cols).Data()
	x := rng.GlorotMatrix(1, cols).Row(0)
	bias := rng.GlorotMatrix(1, rows).Row(0)
	dst := make([]float64, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecBias(dst, w, cols, x, bias)
	}
}

// naiveMatVecBackward is the row-at-a-time loop MatVecBackward replaces:
// one read-modify-write pass over gradIn per non-zero row.
func naiveMatVecBackward(gradW, gradIn, w []float64, cols int, d, x []float64) {
	for r, dr := range d {
		if dr == 0 {
			continue
		}
		for j, xj := range x {
			gradW[r*cols+j] += dr * xj
			gradIn[j] += dr * w[r*cols+j]
		}
	}
}

// The four-row-blocked backward kernel must match the row-at-a-time loop
// bit-for-bit — sign of zero included — for row counts on both sides of the
// block width and for d vectors whose zeros land in every block position:
// a zero row is skipped, so the next live row joins the block in its place.
func TestMatVecBackwardMatchesNaiveBitwise(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 22, 32, 96}
	for _, rows := range widths {
		for _, cols := range widths {
			rng := NewRNG(int64(rows*1000 + cols))
			w := rng.GlorotMatrix(rows, cols).Data()
			x := rng.GlorotMatrix(1, cols).Row(0)
			x[0] = 0 // d·0 is ±0: the accumulators' zero signs must survive it
			masks := []func(r int) bool{
				func(int) bool { return false },
				func(int) bool { return true },
				func(r int) bool { return r%2 == 0 },
				func(r int) bool { return r%3 == 1 },
				func(r int) bool { return r >= rows/2 },
			}
			for pos := 0; pos < 4; pos++ {
				masks = append(masks,
					func(r int) bool { return r%4 == pos },
					func(r int) bool { return r%4 != pos })
			}
			for mi, zero := range masks {
				d := make([]float64, rows)
				rng.FillNormal(d, 0, 1)
				for r := range d {
					if zero(r) {
						d[r] = 0
					}
				}
				if rows > 1 {
					d[rows-1] = -d[rows-1] // mixed signs, so −0 products occur
				}
				// Non-zero starting accumulators, with a −0 the skip must
				// leave alone (−0 + +0 would flip it to +0).
				gradW, gradIn := make([]float64, rows*cols), make([]float64, cols)
				rng.FillNormal(gradW, 0, 1)
				rng.FillNormal(gradIn, 0, 1)
				gradW[0] = math.Copysign(0, -1)
				wantW, wantIn := CloneVec(gradW), CloneVec(gradIn)

				naiveMatVecBackward(wantW, wantIn, w, cols, d, x)
				MatVecBackward(gradW, gradIn, w, cols, d, x)
				for i := range wantW {
					if math.Float64bits(gradW[i]) != math.Float64bits(wantW[i]) {
						t.Fatalf("rows=%d cols=%d mask %d: gradW[%d] = %v, want %v", rows, cols, mi, i, gradW[i], wantW[i])
					}
				}
				for i := range wantIn {
					if math.Float64bits(gradIn[i]) != math.Float64bits(wantIn[i]) {
						t.Fatalf("rows=%d cols=%d mask %d: gradIn[%d] = %v, want %v", rows, cols, mi, i, gradIn[i], wantIn[i])
					}
				}
			}
		}
	}
}

func TestMatVecBackwardShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatVecBackward(make([]float64, 12), make([]float64, 4), make([]float64, 12), 3, make([]float64, 4), make([]float64, 3))
}

func BenchmarkMatVecBackward32x32(b *testing.B) {
	const rows, cols = 32, 32
	rng := NewRNG(3)
	w := rng.GlorotMatrix(rows, cols).Data()
	x := rng.GlorotMatrix(1, cols).Row(0)
	d := rng.GlorotMatrix(1, rows).Row(0)
	gradW, gradIn := make([]float64, rows*cols), make([]float64, cols)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatVecBackward(gradW, gradIn, w, cols, d, x)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveMatVecBackward(gradW, gradIn, w, cols, d, x)
		}
	})
}
