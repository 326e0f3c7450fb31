package tensor

import "fmt"

// MatVec computes dst[r] = dot(w[r,:], x) for a row-major rows x cols
// matrix w, where rows = len(dst) and cols = len(x). Rows are processed in
// blocks of four so the four accumulators live in registers and the loads
// of x are shared; each accumulator still sums in ascending k order, so the
// result is bit-identical to calling Dot per row.
func MatVec(dst, w []float64, cols int, x []float64) {
	rows := len(dst)
	if len(x) != cols || len(w) != rows*cols {
		panic(fmt.Sprintf("tensor: matvec shape mismatch w=%d dst=%d x=%d cols=%d", len(w), rows, len(x), cols))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := w[(r+0)*cols : (r+1)*cols]
		r1 := w[(r+1)*cols : (r+2)*cols]
		r2 := w[(r+2)*cols : (r+3)*cols]
		r3 := w[(r+3)*cols : (r+4)*cols]
		var a0, a1, a2, a3 float64
		for k, xv := range x {
			a0 += r0[k] * xv
			a1 += r1[k] * xv
			a2 += r2[k] * xv
			a3 += r3[k] * xv
		}
		dst[r+0] = a0
		dst[r+1] = a1
		dst[r+2] = a2
		dst[r+3] = a3
	}
	for ; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var a float64
		for k, xv := range x {
			a += row[k] * xv
		}
		dst[r] = a
	}
}

// MatVecBias computes dst[r] = dot(w[r,:], x) + bias[r], the Linear layer
// forward map, bit-identical to Linear.Forward: each row's dot product
// accumulates in ascending k order and the bias is added last.
func MatVecBias(dst, w []float64, cols int, x, bias []float64) {
	rows := len(dst)
	if len(x) != cols || len(w) != rows*cols || len(bias) != rows {
		panic(fmt.Sprintf("tensor: matvec shape mismatch w=%d dst=%d x=%d bias=%d cols=%d", len(w), rows, len(x), len(bias), cols))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := w[(r+0)*cols : (r+1)*cols]
		r1 := w[(r+1)*cols : (r+2)*cols]
		r2 := w[(r+2)*cols : (r+3)*cols]
		r3 := w[(r+3)*cols : (r+4)*cols]
		var a0, a1, a2, a3 float64
		for k, xv := range x {
			a0 += r0[k] * xv
			a1 += r1[k] * xv
			a2 += r2[k] * xv
			a3 += r3[k] * xv
		}
		dst[r+0] = a0 + bias[r+0]
		dst[r+1] = a1 + bias[r+1]
		dst[r+2] = a2 + bias[r+2]
		dst[r+3] = a3 + bias[r+3]
	}
	for ; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var a float64
		for k, xv := range x {
			a += row[k] * xv
		}
		dst[r] = a + bias[r]
	}
}

// MatVecAccBias computes dst[r] = dst[r] + dot(u[r,:], h) + bias[r]. It is
// the second half of the GRU affine map pre = W x + U h + b: seeded with
// dst[r] = dot(W[r,:], x) from MatVec, the combined result evaluates as
// (dot(W,x) + dot(U,h)) + bias — the exact association GRUCell's affine
// uses, so it is bit-identical to it.
func MatVecAccBias(dst, u []float64, cols int, h, bias []float64) {
	rows := len(dst)
	if len(h) != cols || len(u) != rows*cols || len(bias) != rows {
		panic(fmt.Sprintf("tensor: matvec shape mismatch u=%d dst=%d h=%d bias=%d cols=%d", len(u), rows, len(h), len(bias), cols))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := u[(r+0)*cols : (r+1)*cols]
		r1 := u[(r+1)*cols : (r+2)*cols]
		r2 := u[(r+2)*cols : (r+3)*cols]
		r3 := u[(r+3)*cols : (r+4)*cols]
		var a0, a1, a2, a3 float64
		for k, hv := range h {
			a0 += r0[k] * hv
			a1 += r1[k] * hv
			a2 += r2[k] * hv
			a3 += r3[k] * hv
		}
		dst[r+0] = dst[r+0] + a0 + bias[r+0]
		dst[r+1] = dst[r+1] + a1 + bias[r+1]
		dst[r+2] = dst[r+2] + a2 + bias[r+2]
		dst[r+3] = dst[r+3] + a3 + bias[r+3]
	}
	for ; r < rows; r++ {
		row := u[r*cols : (r+1)*cols]
		var a float64
		for k, hv := range h {
			a += row[k] * hv
		}
		dst[r] = dst[r] + a + bias[r]
	}
}
