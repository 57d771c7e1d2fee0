package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lds-storage/lds/internal/gf"
)

func mustFromRows(t *testing.T, rows [][]byte) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = byte(rng.Intn(256))
	}
	return m
}

func TestNewInvalidShapePanics(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should fail")
	}
	if _, err := FromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("FromRows with ragged rows should fail")
	}
	m := mustFromRows(t, [][]byte{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %d, want 3", m.At(1, 0))
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 5, 5)
	id := Identity(5)
	if !m.Mul(id).Equal(m) || !id.Mul(m).Equal(m) {
		t.Error("multiplying by identity changed the matrix")
	}
}

func TestMulKnown(t *testing.T) {
	a := mustFromRows(t, [][]byte{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]byte{{5, 6}, {7, 8}})
	want := New(2, 2)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			var acc byte
			for i := 0; i < 2; i++ {
				acc ^= gf.Mul(a.At(r, i), b.At(i, c))
			}
			want.Set(r, c, acc)
		}
	}
	if got := a.Mul(b); !got.Equal(want) {
		t.Errorf("Mul =\n%vwant\n%v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulVec(t *testing.T) {
	m := mustFromRows(t, [][]byte{{1, 0, 2}, {0, 1, 3}})
	v := []byte{9, 8, 1}
	got := m.MulVec(v)
	want := []byte{gf.Add(9, gf.Mul(2, 1)), gf.Add(8, gf.Mul(3, 1))}
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

// TestMulLanes: applying m to lanes is MulVec applied to every byte
// position at once, with a short or nil lane read as zero-extended; and
// MulInto still reuses (and re-zeroes) a result matrix passed back in.
func TestMulLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 3, 4)
	const laneLen = 9
	lanes := [][]byte{make([]byte, laneLen), make([]byte, 5), nil, make([]byte, laneLen)}
	for _, lane := range lanes {
		rng.Read(lane)
	}
	out := m.MulLanes(lanes, laneLen)
	if len(out) != m.Rows()*laneLen {
		t.Fatalf("MulLanes returned %d bytes, want %d", len(out), m.Rows()*laneLen)
	}
	for pos := 0; pos < laneLen; pos++ {
		v := make([]byte, len(lanes))
		for j, lane := range lanes {
			if pos < len(lane) {
				v[j] = lane[pos]
			}
		}
		for r, want := range m.MulVec(v) {
			if got := out[r*laneLen+pos]; got != want {
				t.Fatalf("row %d position %d = %d, want %d", r, pos, got, want)
			}
		}
	}

	a, b := randomMatrix(rng, 3, 3), randomMatrix(rng, 3, 3)
	prod := a.MulInto(b, nil)
	if again := a.MulInto(b, prod); again != prod || !again.Equal(a.Mul(b)) {
		t.Error("MulInto into its own earlier result changed the product or reallocated")
	}
}

// addMulLanesScalar is the oracle for AddMulLanes: gf.Mul, byte by byte.
func addMulLanesScalar(row []byte, in [][]byte, out []byte) {
	for j, coeff := range row {
		for pos, x := range in[j] {
			out[pos] ^= gf.Mul(coeff, x)
		}
	}
}

// TestAddMulLanesMatchesScalar covers the grouping in AddMulLanes: one to
// nine inputs (below, at and past two fused groups of four), with lanes that
// are nil, short or full and coefficients that are 0 (skipped), 1 (plain
// XOR) or anything else, at lengths around the word loop's edges.
func TestAddMulLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for inputs := 1; inputs <= 9; inputs++ {
		for _, laneLen := range []int{1, 7, 8, 9, 40, 67} {
			for trial := 0; trial < 40; trial++ {
				row, in := make([]byte, inputs), make([][]byte, inputs)
				for j := range in {
					row[j] = byte(rng.Intn(256))
					if c := rng.Intn(6); c < 2 {
						row[j] = byte(c)
					}
					switch rng.Intn(4) {
					case 0: // nil
					case 1:
						in[j] = make([]byte, rng.Intn(laneLen))
					default:
						in[j] = make([]byte, laneLen)
					}
					rng.Read(in[j])
				}
				got := make([]byte, laneLen)
				rng.Read(got)
				want := append([]byte(nil), got...)
				addMulLanesScalar(row, in, want)
				AddMulLanes(row, in, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("row %v, lane lengths %v of %d:\n got  %x\n want %x", row, laneLens(in), laneLen, got, want)
				}
			}
		}
	}
}

func laneLens(in [][]byte) []int {
	lens := make([]int, len(in))
	for j, lane := range in {
		lens[j] = len(lane)
	}
	return lens
}

// FuzzAddMulLanes derives a row, its lanes (cut to fuzzed lengths, so nil,
// short and full ones all occur) and the prior contents of out from the
// fuzzed bytes and compares AddMulLanes with the scalar oracle.
func FuzzAddMulLanes(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte("seed lanes, long enough to cut into a few pieces"), uint8(9))
	f.Add([]byte{0, 1, 0x53, 0xff, 2, 7, 9, 200, 1}, bytes.Repeat([]byte{0xa5, 0x5a, 3}, 200), uint8(64))
	f.Fuzz(func(t *testing.T, row, data []byte, laneLen uint8) {
		if len(row) > 16 {
			row = row[:16]
		}
		in := make([][]byte, len(row))
		for j := range in {
			// The first byte of what is left picks the lane's length.
			n := 0
			if len(data) > 0 {
				n = min(int(data[0])%(int(laneLen)+1), len(data)-1)
				data = data[1:]
			}
			in[j], data = data[:n:n], data[n:]
		}
		got := make([]byte, laneLen)
		copy(got, data)
		want := append([]byte(nil), got...)
		addMulLanesScalar(row, in, want)
		AddMulLanes(row, in, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %v, lane lengths %v of %d:\n got  %x\n want %x", row, laneLens(in), laneLen, got, want)
		}
	})
}

func TestTranspose(t *testing.T) {
	m := mustFromRows(t, [][]byte{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("Transpose shape = %dx%d", tr.Rows(), tr.Cols())
	}
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Error("double transpose is not the identity")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	id := Identity(6)
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(rng, 6, 6)
		inv, err := m.Inverse()
		if errors.Is(err, ErrSingular) {
			continue // random singular matrices are rare but legal
		}
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		if !m.Mul(inv).Equal(id) || !inv.Mul(m).Equal(id) {
			t.Fatalf("trial %d: M * M^-1 != I", trial)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := mustFromRows(t, [][]byte{{1, 2}, {1, 2}})
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("Inverse of singular matrix: err = %v, want ErrSingular", err)
	}
	zero := New(3, 3)
	if _, err := zero.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("Inverse of zero matrix: err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("Inverse of non-square matrix should fail")
	}
}

func TestVandermondeAnyKRowsInvertible(t *testing.T) {
	// The defining property the erasure codes rely on: any k rows of a
	// Vandermonde matrix with distinct points form an invertible matrix.
	points := make([]byte, 12)
	for i := range points {
		points[i] = byte(i)
	}
	const k = 4
	v := Vandermonde(points, k)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		idx := rng.Perm(len(points))[:k]
		sub := v.SelectRows(idx)
		if _, err := sub.Inverse(); err != nil {
			t.Fatalf("rows %v of Vandermonde not invertible: %v", idx, err)
		}
	}
}

func TestVandermondeFirstColumnOnes(t *testing.T) {
	v := Vandermonde([]byte{0, 1, 2, 250}, 3)
	for r := 0; r < v.Rows(); r++ {
		if v.At(r, 0) != 1 {
			t.Errorf("row %d: first column = %d, want 1", r, v.At(r, 0))
		}
	}
	// Row for point 0 must be [1, 0, 0].
	if v.At(0, 1) != 0 || v.At(0, 2) != 0 {
		t.Error("row for x=0 should be e_1")
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]byte
		want int
	}{
		{"identity", [][]byte{{1, 0}, {0, 1}}, 2},
		{"duplicate rows", [][]byte{{1, 2}, {1, 2}}, 1},
		{"zero", [][]byte{{0, 0}, {0, 0}}, 0},
		{"wide full rank", [][]byte{{1, 0, 5}, {0, 1, 7}}, 2},
		{"tall rank deficient", [][]byte{{1, 1}, {2, 2}, {3, 3}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := mustFromRows(t, tt.rows)
			if got := m.Rank(); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(rng, 5, 5)
		if _, err := m.Inverse(); err != nil {
			continue
		}
		x := make([]byte, 5)
		for i := range x {
			x[i] = byte(rng.Intn(256))
		}
		b := m.MulVec(x)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i := range x {
			if got[i] != x[i] {
				t.Fatalf("Solve mismatch at %d: got %v want %v", i, got, x)
			}
		}
	}
}

func TestSelectRowsAndColRange(t *testing.T) {
	m := mustFromRows(t, [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	sub := m.SelectRows([]int{2, 0})
	want := mustFromRows(t, [][]byte{{7, 8, 9}, {1, 2, 3}})
	if !sub.Equal(want) {
		t.Errorf("SelectRows =\n%vwant\n%v", sub, want)
	}
	rng := m.ColRange(0, 2)
	wantRange := mustFromRows(t, [][]byte{{1, 2}, {4, 5}, {7, 8}})
	if !rng.Equal(wantRange) {
		t.Errorf("ColRange =\n%vwant\n%v", rng, wantRange)
	}
}

func TestAddScale(t *testing.T) {
	a := mustFromRows(t, [][]byte{{1, 2}, {3, 4}})
	sum := a.Add(a)
	if sum.At(0, 0) != 0 || sum.At(1, 1) != 0 {
		t.Error("A + A should be zero in characteristic 2")
	}
	sc := a.Scale(2)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if sc.At(r, c) != gf.Mul(2, a.At(r, c)) {
				t.Errorf("Scale mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := mustFromRows(t, [][]byte{{1, 9}, {9, 4}})
	if !sym.IsSymmetric() {
		t.Error("symmetric matrix reported as asymmetric")
	}
	asym := mustFromRows(t, [][]byte{{1, 9}, {8, 4}})
	if asym.IsSymmetric() {
		t.Error("asymmetric matrix reported as symmetric")
	}
	if New(2, 3).IsSymmetric() {
		t.Error("non-square matrix reported as symmetric")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := mustFromRows(t, [][]byte{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage with the original")
	}
}

func TestMulAssociativityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		c := randomMatrix(rng, 2, 5)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("matrix multiplication not associative: %v", err)
	}
}

func TestTransposeOfProductQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func() bool {
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("(AB)^T != B^T A^T: %v", err)
	}
}

func BenchmarkInverse32(b *testing.B) {
	points := make([]byte, 32)
	for i := range points {
		points[i] = byte(i + 1)
	}
	v := Vandermonde(points, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddMulLanes applies one dense four-coefficient row -- an output
// lane of the (14, 4, 4) MBR code -- to seeded random lanes of 4 KiB,
// 16 KiB and 1 MiB values at stripe size 10.
func BenchmarkAddMulLanes(b *testing.B) {
	for _, laneLen := range []int{410, 1640, 104858} {
		rng := rand.New(rand.NewSource(1))
		in := make([][]byte, 4)
		for j := range in {
			in[j] = make([]byte, laneLen)
			rng.Read(in[j])
		}
		out := make([]byte, laneLen)
		b.Run(fmt.Sprint(laneLen), func(b *testing.B) {
			b.SetBytes(int64(len(in) * laneLen))
			for i := 0; i < b.N; i++ {
				AddMulLanes([]byte{byte(i) | 2, 7, 9, 200}, in, out)
			}
		})
	}
}
