// Package tensor provides the dense linear-algebra kernels used throughout
// PredictDDL: row-major matrices, vectors, least-squares solvers, and
// deterministic random initialization. It is deliberately small — just the
// operations the GHN-2 network, the regression engines, and the simulator
// need — and has no dependencies beyond the standard library.
//
// All operations are deterministic. Functions that can fail due to shape
// mismatches return errors; the kernels wired to statically known shapes
// (network layers) panic instead.
package tensor

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Matrices are not safe for
// concurrent mutation; concurrent reads are safe.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a rows x cols matrix from data interpreted in
// row-major order. The slice is copied.
func NewMatrixFrom(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: data length %d does not match %dx%d", len(data), rows, cols)
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice backed by the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("tensor: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the underlying row-major storage. Mutating it mutates the
// matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Zero resets all elements to zero, preserving shape.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// MulVec returns m*v, or an error when len(v) != Cols.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("tensor: mulvec shape mismatch %dx%d x %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out, nil
}

// MulVecT returns mᵀ*v (i.e. v treated as a row vector times m), or an error
// when len(v) != Rows.
func (m *Matrix) MulVecT(v []float64) ([]float64, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("tensor: mulvecT shape mismatch %d x %dx%d", len(v), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, mv := range row {
			out[j] += vi * mv
		}
	}
	return out, nil
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShown = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShown; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < maxShown; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if m.cols > maxShown {
			b.WriteString(" …")
		}
	}
	if m.rows > maxShown {
		b.WriteString("; …")
	}
	b.WriteString("]")
	return b.String()
}
