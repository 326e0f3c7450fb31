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
// forward map (training and serving both): each row's dot product
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
// (dot(W,x) + dot(U,h)) + bias.
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

// MatVecBackward is the backward map of an affine layer pre = W x (+ b)
// for one sample: given d = dL/dpre it accumulates the weight gradient
// gradW[r,:] += d[r]·x and the input gradient gradIn += d[r]·w[r,:], for a
// row-major len(d) x cols matrix w. gradW, gradIn, w, d and x must not
// overlap.
//
// Rows with d[r] == 0 are skipped outright, not multiplied through: adding
// 0·x is not a no-op in IEEE arithmetic (−0 + +0 = +0, and 0·Inf = NaN), so
// skipping and adding differ in bits. The remaining rows are taken four at
// a time so gradIn[j] is read and written once per four rows; the sum
// gradIn[j] + d0·w0[j] + d1·w1[j] + … still associates left to right in
// ascending row order, so every element is bit-identical to the
// row-at-a-time loop.
func MatVecBackward(gradW, gradIn, w []float64, cols int, d, x []float64) {
	rows := len(d)
	if len(x) != cols || len(gradIn) != cols || len(w) != rows*cols || len(gradW) != rows*cols {
		panic(fmt.Sprintf("tensor: matvec backward shape mismatch w=%d gradW=%d gradIn=%d d=%d x=%d cols=%d", len(w), len(gradW), len(gradIn), rows, len(x), cols))
	}
	var live [4]int // the next up-to-four rows with d != 0
	for r := 0; r < rows; {
		n := 0
		for ; r < rows && n < 4; r++ {
			if d[r] != 0 {
				live[n] = r
				n++
			}
		}
		if n < 4 {
			for _, i := range live[:n] {
				di := d[i]
				wi := w[i*cols : (i+1)*cols]
				gi := gradW[i*cols : (i+1)*cols]
				for j, xj := range x {
					gi[j] += di * xj
					gradIn[j] += di * wi[j]
				}
			}
			return
		}
		d0, d1, d2, d3 := d[live[0]], d[live[1]], d[live[2]], d[live[3]]
		w0 := w[live[0]*cols : (live[0]+1)*cols]
		w1 := w[live[1]*cols : (live[1]+1)*cols]
		w2 := w[live[2]*cols : (live[2]+1)*cols]
		w3 := w[live[3]*cols : (live[3]+1)*cols]
		g0 := gradW[live[0]*cols : (live[0]+1)*cols]
		g1 := gradW[live[1]*cols : (live[1]+1)*cols]
		g2 := gradW[live[2]*cols : (live[2]+1)*cols]
		g3 := gradW[live[3]*cols : (live[3]+1)*cols]
		// Re-slicing to len(x) lets the compiler drop the bounds checks
		// in the loop below.
		w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
		g0, g1, g2, g3 = g0[:len(x)], g1[:len(x)], g2[:len(x)], g3[:len(x)]
		for j, xj := range x {
			g0[j] += d0 * xj
			g1[j] += d1 * xj
			g2[j] += d2 * xj
			g3[j] += d3 * xj
			gradIn[j] = gradIn[j] + d0*w0[j] + d1*w1[j] + d2*w2[j] + d3*w3[j]
		}
	}
}
