// Package gf implements arithmetic over the finite field GF(2^8).
//
// The field is realized as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), i.e. the
// primitive polynomial 0x11D commonly used by Reed-Solomon implementations.
// All 255 nonzero elements are powers of the generator 2, which lets scalar
// multiplication and division run off log/exp tables.
//
// The slice kernels (MulSlice, AddMulSlice, AddMulSlices, AddSlice) are the
// hot path of encoding and run off a 64 KiB product table instead: the row
// of a coefficient maps every byte to its product, so a kernel is one
// branch-free look-up per source byte, with eight products assembled into
// one 64-bit word per load-xor-store of dst. AddMulSlices fuses up to four
// sources into a single pass over dst, and AddSlice (which is also how
// matrix.AddMulLanes applies a coefficient of 1) XORs a word at a time.
package gf

import "encoding/binary"

// Polynomial is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Polynomial = 0x11D

// Order is the number of elements in the field.
const Order = 256

// nonZero is the size of the multiplicative group.
const nonZero = Order - 1

var expTable, logTable = buildTables()

// mulTable[c][x] = c * x; row c is the whole of "multiply by c".
var mulTable = buildMulTable()

func buildMulTable() *[Order][Order]byte {
	t := new([Order][Order]byte)
	for c := range t {
		for x := range t[c] {
			t[c][x] = Mul(byte(c), byte(x))
		}
	}
	return t
}

// buildTables constructs the exp/log tables for the multiplicative group
// generated by 2. expTable has length 2*nonZero so products of logs can be
// looked up without a modular reduction.
func buildTables() ([]byte, []byte) {
	exp := make([]byte, 2*nonZero)
	logt := make([]byte, Order)
	x := 1
	for i := 0; i < nonZero; i++ {
		exp[i] = byte(x)
		exp[i+nonZero] = byte(x)
		logt[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	return exp, logt
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). Division by zero panics, mirroring integer
// division: it is always a programming error, never a data error.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])-int(logTable[b])+nonZero]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return expTable[nonZero-int(logTable[a])]
}

// Exp returns the generator (2) raised to the power e.
func Exp(e int) byte {
	e %= nonZero
	if e < 0 {
		e += nonZero
	}
	return expTable[e]
}

// Log returns the discrete logarithm of a with respect to the generator.
// Log of zero panics.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a raised to the power e (e >= 0). Pow(0, 0) is defined as 1.
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return Exp(Log(a) * e)
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; dst may alias src.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSlice length mismatch")
	}
	t, words := &mulTable[c], len(src)&^7
	for i := 0; i < words; i += 8 {
		s := src[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(dst[i:i+8], quad(t, (*[4]byte)(s))|quad(t, (*[4]byte)(s[4:]))<<32)
	}
	for i := words; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// quad returns the four products of s under t as the low half of a
// little-endian word. A word is two quads, not one eight-byte helper, because
// only this much fits the inliner's budget and a call per word halves the
// kernel's speed.
func quad(t *[Order]byte, s *[4]byte) uint64 {
	return uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24
}

// xorWord sets the first eight bytes of dst to themselves xor w.
func xorWord(dst []byte, w uint64) {
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^w)
}

// AddMulSlice sets dst[i] ^= c * src[i] for all i, the fused
// multiply-accumulate used by matrix-vector products.
func AddMulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: AddMulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	t, words := &mulTable[c], len(src)&^7
	for i := 0; i < words; i += 8 {
		s := src[i : i+8 : i+8]
		xorWord(dst[i:i+8], quad(t, (*[4]byte)(s))|quad(t, (*[4]byte)(s[4:]))<<32)
	}
	for i := words; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// AddMulSlices sets dst[i] ^= sum_j c[j]*src[j][i] for all i: AddMulSlice
// over every source, but with three or four sources in ONE pass over dst --
// their products meet in a register and dst is loaded and stored once. A
// source shorter than dst is read as zero-extended (a longer one panics):
// the fused pass covers what all sources cover and AddMulSlice finishes the
// longer ones.
func AddMulSlices(c []byte, src [][]byte, dst []byte) {
	fused := len(dst)
	for _, s := range src {
		fused = min(fused, len(s))
	}
	switch head := dst[:fused]; len(src) {
	case 3:
		addMul3(&mulTable[c[0]], &mulTable[c[1]], &mulTable[c[2]], src[0], src[1], src[2], head)
	case 4:
		addMul4(&mulTable[c[0]], &mulTable[c[1]], &mulTable[c[2]], &mulTable[c[3]], src[0], src[1], src[2], src[3], head)
	default:
		fused = 0
	}
	for j, s := range src {
		AddMulSlice(c[j], s[fused:], dst[fused:len(s):len(dst)])
	}
}

func addMul3(t0, t1, t2 *[Order]byte, s0, s1, s2, dst []byte) {
	words := len(dst) &^ 7
	for i := 0; i < words; i += 8 {
		a, b, c := s0[i:i+8:i+8], s1[i:i+8:i+8], s2[i:i+8:i+8]
		xorWord(dst[i:i+8], uint64(t0[a[0]]^t1[b[0]]^t2[c[0]])|
			uint64(t0[a[1]]^t1[b[1]]^t2[c[1]])<<8|
			uint64(t0[a[2]]^t1[b[2]]^t2[c[2]])<<16|
			uint64(t0[a[3]]^t1[b[3]]^t2[c[3]])<<24|
			uint64(t0[a[4]]^t1[b[4]]^t2[c[4]])<<32|
			uint64(t0[a[5]]^t1[b[5]]^t2[c[5]])<<40|
			uint64(t0[a[6]]^t1[b[6]]^t2[c[6]])<<48|
			uint64(t0[a[7]]^t1[b[7]]^t2[c[7]])<<56)
	}
	for i := words; i < len(dst); i++ {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]]
	}
}

func addMul4(t0, t1, t2, t3 *[Order]byte, s0, s1, s2, s3, dst []byte) {
	words := len(dst) &^ 7
	for i := 0; i < words; i += 8 {
		a, b, c, d := s0[i:i+8:i+8], s1[i:i+8:i+8], s2[i:i+8:i+8], s3[i:i+8:i+8]
		xorWord(dst[i:i+8], uint64(t0[a[0]]^t1[b[0]]^t2[c[0]]^t3[d[0]])|
			uint64(t0[a[1]]^t1[b[1]]^t2[c[1]]^t3[d[1]])<<8|
			uint64(t0[a[2]]^t1[b[2]]^t2[c[2]]^t3[d[2]])<<16|
			uint64(t0[a[3]]^t1[b[3]]^t2[c[3]]^t3[d[3]])<<24|
			uint64(t0[a[4]]^t1[b[4]]^t2[c[4]]^t3[d[4]])<<32|
			uint64(t0[a[5]]^t1[b[5]]^t2[c[5]]^t3[d[5]])<<40|
			uint64(t0[a[6]]^t1[b[6]]^t2[c[6]]^t3[d[6]])<<48|
			uint64(t0[a[7]]^t1[b[7]]^t2[c[7]]^t3[d[7]])<<56)
	}
	for i := words; i < len(dst); i++ {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

// AddSlice sets dst[i] ^= src[i] for all i.
func AddSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: AddSlice length mismatch")
	}
	words := len(src) &^ 7
	for i := 0; i < words; i += 8 {
		xorWord(dst[i:i+8], binary.LittleEndian.Uint64(src[i:i+8]))
	}
	for i := words; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []byte) byte {
	if len(a) != len(b) {
		panic("gf: Dot length mismatch")
	}
	var acc byte
	for i := range a {
		acc ^= Mul(a[i], b[i])
	}
	return acc
}
