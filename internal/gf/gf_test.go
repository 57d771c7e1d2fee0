package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	tests := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{1, 1, 0},
		{0x53, 0xCA, 0x99},
		{0xFF, 0x0F, 0xF0},
	}
	for _, tt := range tests {
		if got := Add(tt.a, tt.b); got != tt.want {
			t.Errorf("Add(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
		if got := Sub(tt.a, tt.b); got != tt.want {
			t.Errorf("Sub(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	// Spot checks computed by hand against the 0x11D polynomial.
	tests := []struct {
		a, b, want byte
	}{
		{0, 5, 0},
		{5, 0, 0},
		{1, 0xB7, 0xB7},
		{2, 0x80, 0x1D}, // 0x100 reduces by the polynomial
		{2, 2, 4},
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less multiply followed by reduction, the definitional product.
	slow := func(a, b byte) byte {
		var prod int
		ai := int(a)
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				prod ^= ai << i
			}
		}
		for bit := 15; bit >= 8; bit-- {
			if prod&(1<<bit) != 0 {
				prod ^= Polynomial << (bit - 8)
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%#x, Inv(%#x)) = %#x, want 1", a, a, got)
		}
		if got := Div(1, byte(a)); got != inv {
			t.Fatalf("Div(1, %#x) = %#x, want %#x", a, got, inv)
		}
	}
	if got := Div(0, 7); got != 0 {
		t.Errorf("Div(0, 7) = %#x, want 0", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Exp(Log(byte(a))); got != byte(a) {
			t.Fatalf("Exp(Log(%#x)) = %#x", a, got)
		}
	}
	for e := -300; e < 600; e++ {
		if got, want := Exp(e), Exp(e+255); got != want {
			t.Fatalf("Exp(%d) = %#x, want periodic %#x", e, got, want)
		}
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{7, 0, 1},
		{2, 1, 2},
		{2, 8, 0x1D},
	}
	for _, tt := range tests {
		if got := Pow(tt.a, tt.e); got != tt.want {
			t.Errorf("Pow(%#x, %d) = %#x, want %#x", tt.a, tt.e, got, tt.want)
		}
	}
	// Pow must agree with repeated multiplication.
	for a := 0; a < 256; a += 3 {
		acc := byte(1)
		for e := 0; e < 20; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%#x, %d) = %#x, want %#x", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}

	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("multiplication not distributive over addition: %v", err)
	}

	divInvertsMul := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(divInvertsMul, cfg); err != nil {
		t.Errorf("division does not invert multiplication: %v", err)
	}
}

// TestSliceKernelsMatchScalar checks MulSlice, AddMulSlice and AddSlice
// against the scalar Mul for every coefficient, every length that puts zero
// to eight whole words and every tail between them, and every alignment of
// src and dst within a word. The bytes around dst must not change.
func TestSliceKernelsMatchScalar(t *testing.T) {
	const maxLen, pad = 71, 8
	rng := rand.New(rand.NewSource(1))
	srcBuf, dstBuf := make([]byte, pad+maxLen), make([]byte, 3*pad+maxLen)
	rng.Read(srcBuf)
	rng.Read(dstBuf)
	got, want := make([]byte, len(dstBuf)), make([]byte, len(dstBuf))
	check := func(kernel string, c, n, so, do int) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: c=%#x len=%d src offset %d dst offset %d:\n got  %x\n want %x", kernel, c, n, so, do, got, want)
		}
	}
	coeffs := []int{0, 1, 2, 0x53, 0x8e, 0xff} // -short, for the race detector's sake
	if !testing.Short() {
		coeffs = coeffs[:0]
		for c := 0; c < Order; c++ {
			coeffs = append(coeffs, c)
		}
	}
	for _, c := range coeffs {
		for n := 0; n <= maxLen; n++ {
			for so := 0; so < pad; so++ {
				src := srcBuf[so : so+n]
				for do := 0; do < pad; do++ {
					lo := pad + do

					copy(got, dstBuf)
					copy(want, dstBuf)
					for i, x := range src {
						want[lo+i] = Mul(byte(c), x)
					}
					MulSlice(byte(c), src, got[lo:lo+n])
					check("MulSlice", c, n, so, do)

					copy(got, dstBuf)
					copy(want, dstBuf)
					for i, x := range src {
						want[lo+i] ^= Mul(byte(c), x)
					}
					AddMulSlice(byte(c), src, got[lo:lo+n])
					check("AddMulSlice", c, n, so, do)

					if c == 1 {
						copy(got, dstBuf)
						AddSlice(src, got[lo:lo+n])
						check("AddSlice", c, n, so, do)
					}
				}
			}
			// dst aliasing src exactly: the product in place.
			copy(got, dstBuf)
			copy(want, dstBuf)
			for i, x := range dstBuf[pad : pad+n] {
				want[pad+i] = Mul(byte(c), x)
			}
			MulSlice(byte(c), got[pad:pad+n], got[pad:pad+n])
			check("MulSlice in place", c, n, 0, 0)
		}
	}
}

// TestAddMulSlices checks the fused kernel against AddMulSlice for zero to
// six sources (the fused arities and both sides of them), with every source
// full, one source short, and one source empty.
func TestAddMulSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 6; n++ {
		for _, dstLen := range []int{0, 1, 7, 8, 9, 31, 64, 71} {
			for short := -1; short < n; short++ {
				for _, cut := range []int{1, dstLen/2 + 1, dstLen} {
					c, src := make([]byte, n), make([][]byte, n)
					rng.Read(c)
					for j := range src {
						src[j] = make([]byte, dstLen)
						if j == short {
							src[j] = src[j][:max(dstLen-cut, 0)]
						}
						rng.Read(src[j])
					}
					got := make([]byte, dstLen)
					rng.Read(got)
					want := append([]byte(nil), got...)
					for j, s := range src {
						AddMulSlice(c[j], s, want[:len(s)])
					}
					AddMulSlices(c, src, got)
					if !bytes.Equal(got, want) {
						t.Fatalf("%d sources of %d bytes, source %d cut by %d:\n got  %x\n want %x", n, dstLen, short, cut, got, want)
					}
				}
			}
		}
	}
}

func TestDot(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	want := Add(Add(Mul(1, 4), Mul(2, 5)), Mul(3, 6))
	if got := Dot(a, b); got != want {
		t.Fatalf("Dot = %#x, want %#x", got, want)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %#x, want 0", got)
	}
}

func TestSliceKernelLengthMismatchPanics(t *testing.T) {
	fns := map[string]func(){
		"MulSlice":    func() { MulSlice(1, []byte{1}, []byte{1, 2}) },
		"AddMulSlice": func() { AddMulSlice(1, []byte{1}, []byte{1, 2}) },
		"AddSlice":    func() { AddSlice([]byte{1}, []byte{1, 2}) },
		"AddMulSlices": func() {
			AddMulSlices([]byte{2, 3, 4}, [][]byte{{1}, {1, 2, 3}, {1}}, []byte{1, 2})
		},
		"Dot": func() { Dot([]byte{1}, []byte{1, 2}) },
	}
	for name, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

// laneSizes are the lane lengths of 4 KiB, 16 KiB and 1 MiB values at the
// reference benchmark's stripe size B = 10.
var laneSizes = []int{410, 1640, 104858}

// benchLanes runs the kernel over n+1 seeded random lanes of each size
// (random bytes, because a predictable source flatters a kernel with a
// data-dependent branch); the last lane is dst.
func benchLanes(b *testing.B, n int, kernel func(c byte, lanes [][]byte)) {
	for _, size := range laneSizes {
		rng := rand.New(rand.NewSource(1))
		lanes := make([][]byte, n+1)
		for i := range lanes {
			lanes[i] = make([]byte, size)
			rng.Read(lanes[i])
		}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.SetBytes(int64(n * size))
			for i := 0; i < b.N; i++ {
				kernel(byte(i)|2, lanes)
			}
		})
	}
}

func BenchmarkAddMulSlice(b *testing.B) {
	benchLanes(b, 1, func(c byte, l [][]byte) { AddMulSlice(c, l[0], l[1]) })
}

func BenchmarkAddMulSlices(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			benchLanes(b, n, func(c byte, l [][]byte) {
				AddMulSlices([]byte{c, 7, 9, 200}[:n], l[:n], l[n])
			})
		})
	}
}

func BenchmarkAddSlice(b *testing.B) {
	benchLanes(b, 1, func(_ byte, l [][]byte) { AddSlice(l[0], l[1]) })
}
