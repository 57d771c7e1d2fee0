package mbr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/gf"
	"github.com/lds-storage/lds/internal/matrix"
)

func mustNew(t *testing.T, n, k, d int) *Code {
	t.Helper()
	c, err := New(erasure.Params{N: n, K: k, D: d})
	if err != nil {
		t.Fatalf("New(%d,%d,%d): %v", n, k, d, err)
	}
	return c
}

func randValue(rng *rand.Rand, size int) []byte {
	v := make([]byte, size)
	rng.Read(v)
	return v
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, k, d int
		wantErr bool
	}{
		{"valid small", 5, 2, 3, false},
		{"valid k=d", 10, 4, 4, false},
		{"paper example", 200, 80, 80, false},
		{"k too small", 5, 0, 3, true},
		{"d < k", 5, 3, 2, true},
		{"n <= d", 4, 2, 4, true},
		{"n too large", 300, 5, 10, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(erasure.Params{N: tt.n, K: tt.k, D: tt.d})
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestStripeSizeMatchesMBRFileSize(t *testing.T) {
	tests := []struct {
		k, d, want int
	}{
		{1, 1, 1},
		{2, 3, 5},  // k*(2d-k+1)/2 = 2*5/2
		{4, 4, 10}, // 4*5/2
		{80, 80, 3240},
		{5, 8, 30},
	}
	for _, tt := range tests {
		c := mustNew(t, tt.d+2, tt.k, tt.d)
		if got := c.StripeSize(); got != tt.want {
			t.Errorf("k=%d d=%d: StripeSize = %d, want %d", tt.k, tt.d, got, tt.want)
		}
		if got := c.NodeSymbols(); got != tt.d {
			t.Errorf("k=%d d=%d: NodeSymbols = %d, want alpha = d = %d", tt.k, tt.d, got, tt.d)
		}
		if got := c.HelperSymbols(); got != 1 {
			t.Errorf("HelperSymbols = %d, want 1", got)
		}
	}
}

func TestEncodeDecodeRoundTripAllSubsets(t *testing.T) {
	c := mustNew(t, 6, 2, 3)
	rng := rand.New(rand.NewSource(42))
	value := randValue(rng, c.StripeSize()) // exactly one stripe
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(shards) != 6 {
		t.Fatalf("Encode returned %d shards, want 6", len(shards))
	}
	// Every pair of shards must decode the value (k = 2).
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			got, err := c.Decode(len(value), []erasure.Shard{
				{Index: i, Data: shards[i]},
				{Index: j, Data: shards[j]},
			})
			if err != nil {
				t.Fatalf("Decode(%d,%d): %v", i, j, err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("Decode(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestEncodeDecodeVariousSizes(t *testing.T) {
	c := mustNew(t, 8, 3, 5)
	rng := rand.New(rand.NewSource(7))
	b := c.StripeSize()
	for _, size := range []int{0, 1, b - 1, b, b + 1, 3 * b, 3*b + 17} {
		value := randValue(rng, size)
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatalf("size %d: Encode: %v", size, err)
		}
		wantShard := c.ShardSize(size)
		for i, sh := range shards {
			if len(sh) != wantShard {
				t.Fatalf("size %d: shard %d has %d bytes, want %d", size, i, len(sh), wantShard)
			}
		}
		picks := rng.Perm(8)[:3]
		sel := make([]erasure.Shard, 3)
		for i, p := range picks {
			sel[i] = erasure.Shard{Index: p, Data: shards[p]}
		}
		got, err := c.Decode(size, sel)
		if err != nil {
			t.Fatalf("size %d: Decode: %v", size, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("size %d: decode mismatch", size)
		}
	}
}

func TestEncodeNodeMatchesEncode(t *testing.T) {
	c := mustNew(t, 7, 3, 4)
	rng := rand.New(rand.NewSource(5))
	value := randValue(rng, 2*c.StripeSize()+3)
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < 7; i++ {
		got, err := c.EncodeNode(value, i)
		if err != nil {
			t.Fatalf("EncodeNode(%d): %v", i, err)
		}
		if !bytes.Equal(got, shards[i]) {
			t.Fatalf("EncodeNode(%d) differs from Encode shard", i)
		}
	}
	if _, err := c.EncodeNode(value, 7); err == nil {
		t.Error("EncodeNode with out-of-range index should fail")
	}
}

func TestRepairRecoverseveryNode(t *testing.T) {
	c := mustNew(t, 8, 3, 5)
	rng := rand.New(rand.NewSource(9))
	value := randValue(rng, 2*c.StripeSize())
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for failed := 0; failed < 8; failed++ {
		// Pick d = 5 random distinct helpers, none the failed node.
		var pool []int
		for i := 0; i < 8; i++ {
			if i != failed {
				pool = append(pool, i)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		helpers := make([]erasure.Helper, 5)
		for i, h := range pool[:5] {
			data, err := c.Helper(shards[h], h, failed)
			if err != nil {
				t.Fatalf("Helper(%d -> %d): %v", h, failed, err)
			}
			if len(data) != c.HelperSize(len(value)) {
				t.Fatalf("helper data %d bytes, want %d", len(data), c.HelperSize(len(value)))
			}
			helpers[i] = erasure.Helper{Index: h, Data: data}
		}
		got, err := c.Regenerate(failed, helpers)
		if err != nil {
			t.Fatalf("Regenerate(%d): %v", failed, err)
		}
		if !bytes.Equal(got, shards[failed]) {
			t.Fatalf("Regenerate(%d): exact repair violated", failed)
		}
	}
}

func TestHelperIndependentOfOtherHelpers(t *testing.T) {
	// The LDS algorithm requires that helper data depends only on the failed
	// index: compute helpers twice for different helper sets and check the
	// overlap is byte-identical.
	c := mustNew(t, 9, 3, 4)
	rng := rand.New(rand.NewSource(13))
	value := randValue(rng, c.StripeSize())
	shards, _ := c.Encode(value)
	const failed = 2
	h1, err := c.Helper(shards[5], 5, failed)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Helper(shards[5], 5, failed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1, h2) {
		t.Fatal("helper data is not a function of (shard, failed index)")
	}
}

func TestRegenerateUsesFirstDHelpers(t *testing.T) {
	// The LDS L1 server takes the first d responses it receives, whatever
	// subset that is; Regenerate must accept more than d and use d.
	c := mustNew(t, 8, 2, 4)
	rng := rand.New(rand.NewSource(17))
	value := randValue(rng, 3*c.StripeSize()+1)
	shards, _ := c.Encode(value)
	const failed = 0
	var helpers []erasure.Helper
	for i := 1; i <= 6; i++ {
		data, err := c.Helper(shards[i], i, failed)
		if err != nil {
			t.Fatal(err)
		}
		helpers = append(helpers, erasure.Helper{Index: i, Data: data})
	}
	got, err := c.Regenerate(failed, helpers)
	if err != nil {
		t.Fatalf("Regenerate with extra helpers: %v", err)
	}
	if !bytes.Equal(got, shards[failed]) {
		t.Fatal("Regenerate with extra helpers produced wrong shard")
	}
}

func TestRegenerateErrors(t *testing.T) {
	c := mustNew(t, 6, 2, 3)
	value := []byte("hello")
	shards, _ := c.Encode(value)
	mkHelper := func(i, failed int) erasure.Helper {
		d, err := c.Helper(shards[i], i, failed)
		if err != nil {
			t.Fatal(err)
		}
		return erasure.Helper{Index: i, Data: d}
	}

	if _, err := c.Regenerate(0, []erasure.Helper{mkHelper(1, 0)}); !errors.Is(err, erasure.ErrShortHelpers) {
		t.Errorf("too few helpers: err = %v, want ErrShortHelpers", err)
	}
	dup := []erasure.Helper{mkHelper(1, 0), mkHelper(1, 0), mkHelper(2, 0)}
	if _, err := c.Regenerate(0, dup); !errors.Is(err, erasure.ErrDuplicateItem) {
		t.Errorf("duplicate helpers: err = %v, want ErrDuplicateItem", err)
	}
	if _, err := c.Regenerate(9, nil); !errors.Is(err, erasure.ErrIndexRange) {
		t.Errorf("bad failed index: err = %v, want ErrIndexRange", err)
	}
	self := []erasure.Helper{{Index: 0, Data: []byte{1}}, mkHelper(1, 0), mkHelper(2, 0)}
	if _, err := c.Regenerate(0, self); err == nil {
		t.Error("self-help should fail")
	}
	ragged := []erasure.Helper{mkHelper(1, 0), {Index: 2, Data: []byte{1, 2, 3, 4}}, mkHelper(3, 0)}
	if _, err := c.Regenerate(0, ragged); !errors.Is(err, erasure.ErrShardSize) {
		t.Errorf("ragged helpers: err = %v, want ErrShardSize", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	c := mustNew(t, 6, 3, 4)
	value := []byte("the quick brown fox")
	shards, _ := c.Encode(value)

	if _, err := c.Decode(len(value), []erasure.Shard{{Index: 0, Data: shards[0]}}); !errors.Is(err, erasure.ErrShortShards) {
		t.Errorf("too few shards: err = %v, want ErrShortShards", err)
	}
	dup := []erasure.Shard{
		{Index: 0, Data: shards[0]}, {Index: 0, Data: shards[0]}, {Index: 1, Data: shards[1]},
	}
	if _, err := c.Decode(len(value), dup); !errors.Is(err, erasure.ErrDuplicateItem) {
		t.Errorf("duplicate shards: err = %v, want ErrDuplicateItem", err)
	}
	bad := []erasure.Shard{
		{Index: 0, Data: shards[0][:1]}, {Index: 1, Data: shards[1]}, {Index: 2, Data: shards[2]},
	}
	if _, err := c.Decode(len(value), bad); !errors.Is(err, erasure.ErrShardSize) {
		t.Errorf("short shard: err = %v, want ErrShardSize", err)
	}
}

func TestHelperErrors(t *testing.T) {
	c := mustNew(t, 6, 2, 3)
	shards, _ := c.Encode([]byte("x"))
	if _, err := c.Helper(shards[0], 0, 0); err == nil {
		t.Error("helping oneself should fail")
	}
	if _, err := c.Helper(shards[0], 0, 99); !errors.Is(err, erasure.ErrIndexRange) {
		t.Errorf("bad failed index: err = %v, want ErrIndexRange", err)
	}
	if _, err := c.Helper([]byte{1, 2}, 0, 1); !errors.Is(err, erasure.ErrShardSize) {
		t.Errorf("bad shard size: err = %v, want ErrShardSize", err)
	}
}

func TestRegeneratedShardStillDecodes(t *testing.T) {
	// End-to-end of the LDS read path: regenerate k shards via repair, then
	// decode the value from the regenerated shards only.
	c := mustNew(t, 10, 3, 4)
	rng := rand.New(rand.NewSource(21))
	value := randValue(rng, 2*c.StripeSize()+5)
	shards, _ := c.Encode(value)

	// Treat nodes 0..2 as the "L1 servers" regenerating their shards from
	// helpers 4..9 (disjoint "L2").
	var regenerated []erasure.Shard
	for failed := 0; failed < 3; failed++ {
		var helpers []erasure.Helper
		for h := 4; h < 4+c.Params().D; h++ {
			data, err := c.Helper(shards[h], h, failed)
			if err != nil {
				t.Fatal(err)
			}
			helpers = append(helpers, erasure.Helper{Index: h, Data: data})
		}
		sh, err := c.Regenerate(failed, helpers)
		if err != nil {
			t.Fatalf("Regenerate(%d): %v", failed, err)
		}
		regenerated = append(regenerated, erasure.Shard{Index: failed, Data: sh})
	}
	got, err := c.Decode(len(value), regenerated)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("value decoded from regenerated shards differs")
	}
}

func TestRoundTripQuick(t *testing.T) {
	c := mustNew(t, 7, 3, 4)
	rng := rand.New(rand.NewSource(31))
	f := func(raw []byte) bool {
		shards, err := c.Encode(raw)
		if err != nil {
			return false
		}
		picks := rng.Perm(7)[:3]
		sel := make([]erasure.Shard, 3)
		for i, p := range picks {
			sel[i] = erasure.Shard{Index: p, Data: shards[p]}
		}
		got, err := c.Decode(len(raw), sel)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("encode/decode round trip: %v", err)
	}
}

func TestPaperScaleParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("large-parameter test skipped in -short mode")
	}
	// The paper's Fig. 6 example: n1 = n2 = 100, k = d = 80, n = 200.
	c := mustNew(t, 200, 80, 80)
	rng := rand.New(rand.NewSource(99))
	value := randValue(rng, c.StripeSize())
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	sel := make([]erasure.Shard, 80)
	for i, p := range rng.Perm(200)[:80] {
		sel[i] = erasure.Shard{Index: p, Data: shards[p]}
	}
	got, err := c.Decode(len(value), sel)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("decode mismatch at paper-scale parameters")
	}

	// Repair node 3 using the last 80 nodes as helpers ("L2").
	var helpers []erasure.Helper
	for h := 100; h < 180; h++ {
		data, err := c.Helper(shards[h], h, 3)
		if err != nil {
			t.Fatal(err)
		}
		helpers = append(helpers, erasure.Helper{Index: h, Data: data})
	}
	sh, err := c.Regenerate(3, helpers)
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	if !bytes.Equal(sh, shards[3]) {
		t.Fatal("exact repair violated at paper-scale parameters")
	}
}

// refEncode is the layout oracle: the per-stripe encoder this package had
// before it computed on lanes, kept scalar. Stripe s takes message symbol p
// from lane p of the padded value, builds the symmetric message matrix M and
// emits psi_i * M as alpha consecutive bytes, so ref[s*alpha+c] is symbol c
// of stripe s.
func refEncode(c *Code, value []byte, node int) []byte {
	k, d := c.params.K, c.params.D
	padded := erasure.PadToStripes(value, c.b)
	stripes := len(padded) / c.b
	out := make([]byte, stripes*d)
	m := make([][]byte, d)
	for i := range m {
		m[i] = make([]byte, d)
	}
	for s := 0; s < stripes; s++ {
		p := 0
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				m[i][j], m[j][i] = padded[p*stripes+s], padded[p*stripes+s]
				p++
			}
		}
		for i := 0; i < k; i++ {
			for j := k; j < d; j++ {
				m[i][j], m[j][i] = padded[p*stripes+s], padded[p*stripes+s]
				p++
			}
		}
		for col := 0; col < d; col++ {
			for r := 0; r < d; r++ {
				out[s*d+col] ^= gf.Mul(c.psi.At(node, r), m[r][col])
			}
		}
	}
	return out
}

// TestLanesArePermutedStripes: the lane-major shard is exactly the
// stripe-major reference shard with symbol c of stripe s moved from
// s*alpha+c to c*L+s -- the same code, re-laid.
func TestLanesArePermutedStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	for trial := 0; trial < 250; trial++ {
		k := 1 + rng.Intn(5)
		d := k + rng.Intn(4)
		c := mustNew(t, d+1+rng.Intn(4), k, d)
		value := randValue(rng, rng.Intn(4*c.b+2))
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		stripes := c.Stripes(len(value))
		for node, shard := range shards {
			ref := refEncode(c, value, node)
			if len(shard) != len(ref) {
				t.Fatalf("trial %d (n=%d k=%d d=%d len=%d): shard %d has %d bytes, reference %d",
					trial, c.params.N, k, d, len(value), node, len(shard), len(ref))
			}
			for s := 0; s < stripes; s++ {
				for col := 0; col < d; col++ {
					if shard[col*stripes+s] != ref[s*d+col] {
						t.Fatalf("trial %d (n=%d k=%d d=%d len=%d): node %d stripe %d symbol %d = %d, reference %d",
							trial, c.params.N, k, d, len(value), node, s, col, shard[col*stripes+s], ref[s*d+col])
					}
				}
			}
		}
	}
}

// forEachSubset calls fn with every r-subset of 0..n-1, in increasing
// order; fn must not keep the slice.
func forEachSubset(n, r int, fn func([]int)) {
	idx := make([]int, r)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == r {
			fn(idx)
			return
		}
		for i := from; i <= n-(r-pos); i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
}

// checkConstruction checks the two properties the systematic code rests
// on: (a) the rows it is asked about are invertible -- every d-subset of
// Psi's rows and every k-subset of Phi's rows when subsets is nil,
// otherwise the given number of random ones -- and (b) node i < k stores
// row i of M as it is, and a helper toward it is lane i of the helper's
// shard.
func checkConstruction(t *testing.T, c *Code, rng *rand.Rand, subsets int) {
	t.Helper()
	n, k, d := c.params.N, c.params.K, c.params.D
	geo := fmt.Sprintf("(%d,%d,%d)", n, k, d)
	check := func(m *matrix.Matrix, rows []int, want int, what string) {
		if got := m.Rank(); got != want {
			t.Fatalf("%s: %s rows %v have rank %d, want %d", geo, what, rows, got, want)
		}
	}
	if subsets == 0 {
		forEachSubset(n, d, func(rows []int) { check(c.psi.SelectRows(rows), rows, d, "Psi") })
		forEachSubset(n, k, func(rows []int) { check(c.phi.SelectRows(rows), rows, k, "Phi") })
	}
	for i := 0; i < subsets; i++ {
		rows := rng.Perm(n)[:d]
		check(c.psi.SelectRows(rows), rows, d, "Psi")
		check(c.phi.SelectRows(rows[:k]), rows[:k], k, "Phi")
	}

	value := randValue(rng, rng.Intn(3*c.b+2))
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Stripes(len(value))
	msg := erasure.Lanes(value, c.b, c.layout)
	for i := 0; i < k; i++ {
		for col := 0; col < d; col++ {
			want := make([]byte, l)
			copy(want, msg[i*d+col])
			if got := shards[i][col*l : (col+1)*l]; !bytes.Equal(got, want) {
				t.Fatalf("%s len %d: node %d lane %d is not message lane %d", geo, len(value), i, col, c.layout[i*d+col])
			}
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			h, err := c.Helper(shards[j], j, i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(h, shards[j][i*l:(i+1)*l]) {
				t.Fatalf("%s len %d: helper %d -> %d is not lane %d of node %d's shard", geo, len(value), j, i, i, j)
			}
		}
	}
}

// TestSystematicConstruction checks the MBR code's construction
// exhaustively at the reference benchmark's geometry and at (15, 5, 8),
// where d > k makes Delta's fix-up matter, and by sampling at the random
// geometries TestLanesArePermutedStripes draws.
func TestSystematicConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	checkConstruction(t, mustNew(t, 14, 4, 4), rng, 0)
	checkConstruction(t, mustNew(t, 15, 5, 8), rng, 0)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		d := k + rng.Intn(4)
		checkConstruction(t, mustNew(t, d+1+rng.Intn(4), k, d), rng, 20)
	}
}

// TestDecodeTakesSystematicShardsFirst: whatever order the shards come
// in, and however many, the value decoded is the same -- with the
// systematic shards offered last, among more than k, or not at all.
func TestDecodeTakesSystematicShardsFirst(t *testing.T) {
	for _, g := range []struct{ n, k, d int }{{14, 4, 4}, {15, 5, 8}} {
		c := mustNew(t, g.n, g.k, g.d)
		rng := rand.New(rand.NewSource(int64(g.d)))
		value := randValue(rng, 5*c.b+3)
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		offer := func(nodes ...int) []erasure.Shard {
			sel := make([]erasure.Shard, len(nodes))
			for i, p := range nodes {
				sel[i] = erasure.Shard{Index: p, Data: shards[p]}
			}
			return sel
		}
		k := g.k
		var nonsys, sys []int
		for i := g.n - 1; i >= k; i-- {
			nonsys = append(nonsys, i)
		}
		for i := k - 1; i >= 0; i-- {
			sys = append(sys, i)
		}
		for _, nodes := range [][]int{
			sys,                                  // all systematic: copies only
			append(nonsys[:k-1:k-1], sys[0]),     // one systematic, offered last
			append(nonsys[:k+1:k+1], sys[1:]...), // systematic last, among more than k
			append(nonsys[:1:1], sys[1:]...),     // the reader's mix: one node missing
			nonsys[:k],                           // none systematic
		} {
			got, err := c.Decode(len(value), offer(nodes...))
			if err != nil {
				t.Fatalf("(%d,%d,%d) nodes %v: %v", g.n, k, g.d, nodes, err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("(%d,%d,%d) nodes %v: decoded value differs", g.n, k, g.d, nodes)
			}
		}
	}
}

// FuzzMBR round-trips random geometries k <= d < n <= 32: a value decodes
// from a random k-subset of its shards, and a random node regenerates from
// d random helpers.
func FuzzMBR(f *testing.F) {
	f.Add(uint8(14), uint8(4), uint8(4), uint16(16<<10), int64(1))
	f.Add(uint8(15), uint8(5), uint8(8), uint16(0), int64(2))
	f.Add(uint8(32), uint8(31), uint8(31), uint16(1), int64(3))
	f.Fuzz(func(t *testing.T, nb, kb, db uint8, size uint16, seed int64) {
		n := 2 + int(nb)%31
		d := 1 + int(db)%(n-1)
		k := 1 + int(kb)%d
		c := mustNew(t, n, k, d)
		rng := rand.New(rand.NewSource(seed))
		value := randValue(rng, int(size)%(4<<10))
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		sel := make([]erasure.Shard, k)
		for i, p := range perm[:k] {
			sel[i] = erasure.Shard{Index: p, Data: shards[p]}
		}
		got, err := c.Decode(len(value), sel)
		if err != nil {
			t.Fatalf("(%d,%d,%d) Decode from %v: %v", n, k, d, perm[:k], err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("(%d,%d,%d) Decode from %v: value differs", n, k, d, perm[:k])
		}
		failed, helpers := perm[0], make([]erasure.Helper, d)
		for i, h := range perm[1 : d+1] {
			data, err := c.Helper(shards[h], h, failed)
			if err != nil {
				t.Fatal(err)
			}
			helpers[i] = erasure.Helper{Index: h, Data: data}
		}
		regen, err := c.Regenerate(failed, helpers)
		if err != nil {
			t.Fatalf("(%d,%d,%d) Regenerate(%d): %v", n, k, d, failed, err)
		}
		if !bytes.Equal(regen, shards[failed]) {
			t.Fatalf("(%d,%d,%d) Regenerate(%d) from %v: shard differs", n, k, d, failed, perm[1:d+1])
		}
	})
}

// The benchmarks below run at the reference benchmark's geometry -- LDS
// (n1, n2, f1, f2) = (6, 8, 1, 2), i.e. the (14, 4, 4) code, at its 4 KiB
// and 16 KiB value sizes and at 1 MiB (1024KiB: lanes far larger than the
// L1 cache) -- on the shapes of the write and read paths, so
// they predict benchmark/'s mbr.* probes: an L1 server encodes the n2
// back-end elements, an L2 server helps L1 server 0, which regenerates from
// d helpers, and the reader decodes from k L1 elements.
func benchSizes(b *testing.B, run func(b *testing.B, c *Code, value []byte, l2 []int, shards [][]byte)) {
	c, err := New(erasure.Params{N: 14, K: 4, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	l2 := []int{6, 7, 8, 9, 10, 11, 12, 13}
	for _, size := range []int{4 << 10, 16 << 10, 1 << 20} {
		value := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(value)
		shards, err := c.Encode(value)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			run(b, c, value, l2, shards)
		})
	}
}

func benchHelpers(b *testing.B, c *Code, l2 []int, shards [][]byte) []erasure.Helper {
	helpers := make([]erasure.Helper, c.params.D)
	for i := range helpers {
		data, err := c.Helper(shards[l2[i]], l2[i], 0)
		if err != nil {
			b.Fatal(err)
		}
		helpers[i] = erasure.Helper{Index: l2[i], Data: data}
	}
	return helpers
}

func BenchmarkEncodeNodes(b *testing.B) {
	benchSizes(b, func(b *testing.B, c *Code, value []byte, l2 []int, _ [][]byte) {
		for i := 0; i < b.N; i++ {
			if _, err := c.EncodeNodes(value, l2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHelper helps L1 server 0, which is systematic (the helper is a
// lane of the L2 element, copied), and L1 server k, which is not (a pass
// over all d lanes).
func BenchmarkHelper(b *testing.B) {
	for _, failed := range []int{0, 4} {
		b.Run(fmt.Sprintf("node%d", failed), func(b *testing.B) {
			benchSizes(b, func(b *testing.B, c *Code, _ []byte, l2 []int, shards [][]byte) {
				for i := 0; i < b.N; i++ {
					if _, err := c.Helper(shards[l2[0]], l2[0], failed); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkRegenerate(b *testing.B) {
	benchSizes(b, func(b *testing.B, c *Code, _ []byte, l2 []int, shards [][]byte) {
		helpers := benchHelpers(b, c, l2, shards)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Regenerate(0, helpers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecode decodes from the k systematic L1 elements (copies only)
// and from a reader's answers: f1+k = 5 of the n1 = 6 L1 servers, in
// arrival order, one systematic server missing -- so Decode takes three
// systematic shards and one other.
func BenchmarkDecode(b *testing.B) {
	for _, row := range []struct {
		name  string
		nodes []int
	}{{"systematic", []int{0, 1, 2, 3}}, {"answers", []int{4, 2, 0, 5, 3}}} {
		b.Run(row.name, func(b *testing.B) {
			benchSizes(b, func(b *testing.B, c *Code, value []byte, _ []int, shards [][]byte) {
				l1 := make([]erasure.Shard, len(row.nodes))
				for i, p := range row.nodes {
					l1[i] = erasure.Shard{Index: p, Data: shards[p]}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Decode(len(value), l1); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	c, err := New(erasure.Params{N: 15, K: 5, D: 8})
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(value)
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(value); err != nil {
			b.Fatal(err)
		}
	}
}
