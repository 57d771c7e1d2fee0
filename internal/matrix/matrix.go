// Package matrix provides dense matrix algebra over GF(2^8).
//
// It supplies exactly what the erasure-code constructions need: products,
// Gauss-Jordan inversion, rank, Vandermonde generators and row selection.
// Matrices are small (dimensions are on the order of the code parameters
// n, k, d <= 256), so clarity is preferred over blocking or SIMD tricks;
// the only hot kernel, AddMulLanes, delegates to package gf.
package matrix

import (
	"errors"
	"fmt"

	"github.com/lds-storage/lds/internal/gf"
)

// ErrSingular is returned when an inverse of a singular matrix is requested.
var ErrSingular = errors.New("matrix: singular")

// Matrix is a dense rows x cols matrix over GF(2^8) in row-major layout.
type Matrix struct {
	rows, cols int
	data       []byte
	// small backs data for matrices of up to 64 elements, so the erasure
	// codes' per-call coefficient matrices (d x d, d <= 8) cost one
	// allocation each instead of two.
	small [64]byte
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	m := &Matrix{rows: rows, cols: cols}
	if n := rows * cols; n <= len(m.small) {
		m.data = m.small[:n]
	} else {
		m.data = make([]byte, n)
	}
	return m
}

// FromRows builds a matrix from row slices, which must all have equal length.
// The data is copied.
func FromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: FromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns a rows x cols Vandermonde matrix whose i-th row is
// [1, x_i, x_i^2, ..., x_i^(cols-1)] for the given evaluation points, which
// must be distinct for the usual rank guarantees to hold.
func Vandermonde(points []byte, cols int) *Matrix {
	m := New(len(points), cols)
	for i, x := range points {
		row := m.Row(i)
		acc := byte(1)
		for j := 0; j < cols; j++ {
			row[j] = acc
			acc = gf.Mul(acc, x)
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set writes the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}

// Mul returns m * o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return m.MulInto(o, nil)
}

// MulInto computes m * o into out, reusing out's storage when it is large
// enough (a nil out is allocated), and returns it. out must not alias m or
// o.
func (m *Matrix) MulInto(o, out *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	if n := m.rows * o.cols; out == nil || cap(out.data) < n {
		out = New(m.rows, o.cols)
	} else {
		out.rows, out.cols, out.data = m.rows, o.cols, out.data[:n]
		clear(out.data)
	}
	for r := 0; r < m.rows; r++ {
		outRow := out.Row(r)
		for i, c := range m.Row(r) {
			gf.AddMulSlice(c, o.Row(i), outRow)
		}
	}
	return out
}

// AddMulLanes is the kernel every erasure-code operation runs on: one
// coefficient row applied to whole byte lanes, out ^= sum_j row[j]*in[j].
// A lane shorter than out (nil included) is read as zero-extended. Lanes
// with a zero coefficient are skipped, a coefficient of 1 is a plain XOR,
// and the rest go to gf.AddMulSlices four at a time, so out is loaded and
// stored once per four inputs, not once per input.
func AddMulLanes(row []byte, in [][]byte, out []byte) {
	var (
		coeffs [4]byte
		lanes  [4][]byte
		n      int
	)
	for j, coeff := range row {
		switch lane := in[j]; {
		case coeff == 0 || len(lane) == 0:
		case coeff == 1:
			gf.AddSlice(lane, out[:len(lane)])
		default:
			coeffs[n], lanes[n] = coeff, lane
			if n++; n == len(lanes) {
				gf.AddMulSlices(coeffs[:], lanes[:], out)
				n = 0
			}
		}
	}
	gf.AddMulSlices(coeffs[:n], lanes[:n], out)
}

// MulLanes returns m applied to m.Cols() lanes of laneLen bytes: m.Rows()
// freshly allocated lanes back to back, lane r = sum_j m[r][j]*in[j].
func (m *Matrix) MulLanes(in [][]byte, laneLen int) []byte {
	out := make([]byte, m.rows*laneLen)
	for r := 0; r < m.rows; r++ {
		AddMulLanes(m.Row(r), in, out[r*laneLen:(r+1)*laneLen])
	}
	return out
}

// MulVec returns m * v for a column vector v of length m.Cols().
func (m *Matrix) MulVec(v []byte) []byte {
	if m.cols != len(v) {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v)))
	}
	out := make([]byte, m.rows)
	for r := range out {
		out[r] = gf.Dot(m.Row(r), v)
	}
	return out
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// SelectRows returns a new matrix consisting of the given rows of m, in the
// given order. Row indices may repeat; callers that need full rank must pass
// distinct indices.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// ColRange returns columns [lo, hi) of m as a new matrix.
func (m *Matrix) ColRange(lo, hi int) *Matrix {
	if lo < 0 || hi > m.cols || lo >= hi {
		panic(fmt.Sprintf("matrix: invalid column range [%d, %d) of %d", lo, hi, m.cols))
	}
	out := New(m.rows, hi-lo)
	for r := 0; r < m.rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// Add returns m + o elementwise.
func (m *Matrix) Add(o *Matrix) *Matrix {
	if m.rows != o.rows || m.cols != o.cols {
		panic("matrix: Add shape mismatch")
	}
	out := m.Clone()
	gf.AddSlice(o.data, out.data)
	return out
}

// Scale returns c * m.
func (m *Matrix) Scale(c byte) *Matrix {
	out := New(m.rows, m.cols)
	gf.MulSlice(c, m.data, out.data)
	return out
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert %dx%d", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		if p := work.At(col, col); p != 1 {
			pinv := gf.Inv(p)
			gf.MulSlice(pinv, work.Row(col), work.Row(col))
			gf.MulSlice(pinv, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.At(r, col); f != 0 {
				gf.AddMulSlice(f, work.Row(col), work.Row(r))
				gf.AddMulSlice(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

// Rank returns the rank of m.
func (m *Matrix) Rank() int {
	work := m.Clone()
	rank := 0
	for col := 0; col < work.cols && rank < work.rows; col++ {
		pivot := -1
		for r := rank; r < work.rows; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != rank {
			swapRows(work, pivot, rank)
		}
		pinv := gf.Inv(work.At(rank, col))
		gf.MulSlice(pinv, work.Row(rank), work.Row(rank))
		for r := 0; r < work.rows; r++ {
			if r == rank {
				continue
			}
			if f := work.At(r, col); f != 0 {
				gf.AddMulSlice(f, work.Row(rank), work.Row(r))
			}
		}
		rank++
	}
	return rank
}

// Solve solves m * x = b for x, where m is square and invertible and b is a
// column vector. It is a convenience wrapper over Inverse for the small
// systems used in repair and decode.
func (m *Matrix) Solve(b []byte) ([]byte, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b), nil
}

// IsSymmetric reports whether a square matrix equals its transpose.
func (m *Matrix) IsSymmetric() bool {
	if m.rows != m.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		for c := r + 1; c < m.cols; c++ {
			if m.At(r, c) != m.At(c, r) {
				return false
			}
		}
	}
	return true
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
