package tensor

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise because a length mismatch is always a
// programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SubVec returns a-b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: subvec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// AxpyInPlace performs dst += s*src.
func AxpyInPlace(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// CosineSimilarity returns the cosine of the angle between a and b, the
// similarity measure PredictDDL uses to compare DNN embeddings (Fig. 5 of
// the paper). It returns 0 when either vector has zero norm.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// EuclideanDistance returns the L2 distance between a and b.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: distance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Concat returns the concatenation of the given vectors as a new slice.
func Concat(vs ...[]float64) []float64 {
	var n int
	for _, v := range vs {
		n += len(v)
	}
	out := make([]float64, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}
