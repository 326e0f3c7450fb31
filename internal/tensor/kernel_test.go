package tensor

import (
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
