package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lds-storage/lds/internal/erasure"
)

func mustNew(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatalf("New(%d,%d): %v", n, k, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, k    int
		wantErr bool
	}{
		{"classic 9+3", 12, 9, false},
		{"n=k+1", 3, 2, false},
		{"k zero", 4, 0, true},
		{"n == k", 4, 4, true},
		{"n too large", 300, 10, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.k)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSystematicProperty(t *testing.T) {
	c := mustNew(t, 7, 4)
	value := []byte{10, 20, 30, 40, 50, 60, 70, 80} // 2 stripes of k=4
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Shard j < k must be lane j of the value: bytes [j*L, (j+1)*L), L = 2.
	for j := 0; j < 4; j++ {
		for s := 0; s < 2; s++ {
			if shards[j][s] != value[j*2+s] {
				t.Fatalf("systematic shard %d stripe %d = %d, want %d", j, s, shards[j][s], value[j*2+s])
			}
		}
	}
}

func TestDecodeFromAnyK(t *testing.T) {
	c := mustNew(t, 8, 3)
	rng := rand.New(rand.NewSource(3))
	value := make([]byte, 100)
	rng.Read(value)
	shards, err := c.Encode(value)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for trial := 0; trial < 100; trial++ {
		picks := rng.Perm(8)[:3]
		sel := make([]erasure.Shard, 3)
		for i, p := range picks {
			sel[i] = erasure.Shard{Index: p, Data: shards[p]}
		}
		got, err := c.Decode(len(value), sel)
		if err != nil {
			t.Fatalf("Decode(%v): %v", picks, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("Decode(%v) mismatch", picks)
		}
	}
}

func TestDecodeSizes(t *testing.T) {
	c := mustNew(t, 6, 4)
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{0, 1, 3, 4, 5, 8, 101} {
		value := make([]byte, size)
		rng.Read(value)
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		sel := []erasure.Shard{
			{Index: 5, Data: shards[5]}, {Index: 1, Data: shards[1]},
			{Index: 4, Data: shards[4]}, {Index: 2, Data: shards[2]},
		}
		got, err := c.Decode(size, sel)
		if err != nil {
			t.Fatalf("size %d: Decode: %v", size, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("size %d: mismatch", size)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c := mustNew(t, 6, 3)
	value := []byte("reed solomon")
	shards, _ := c.Encode(value)

	if _, err := c.Decode(len(value), shards2(shards, 0, 1)); !errors.Is(err, erasure.ErrShortShards) {
		t.Errorf("short: err = %v, want ErrShortShards", err)
	}
	dup := []erasure.Shard{
		{Index: 0, Data: shards[0]}, {Index: 0, Data: shards[0]}, {Index: 1, Data: shards[1]},
	}
	if _, err := c.Decode(len(value), dup); !errors.Is(err, erasure.ErrDuplicateItem) {
		t.Errorf("dup: err = %v, want ErrDuplicateItem", err)
	}
	short := []erasure.Shard{
		{Index: 0, Data: shards[0][:1]}, {Index: 1, Data: shards[1]}, {Index: 2, Data: shards[2]},
	}
	if _, err := c.Decode(len(value), short); !errors.Is(err, erasure.ErrShardSize) {
		t.Errorf("bad size: err = %v, want ErrShardSize", err)
	}
	oob := []erasure.Shard{
		{Index: 9, Data: shards[0]}, {Index: 1, Data: shards[1]}, {Index: 2, Data: shards[2]},
	}
	if _, err := c.Decode(len(value), oob); !errors.Is(err, erasure.ErrIndexRange) {
		t.Errorf("oob: err = %v, want ErrIndexRange", err)
	}
}

func TestRepairReadCost(t *testing.T) {
	// Repairing one RS shard needs k whole shards: the baseline number the
	// regenerating-code comparison uses.
	c := mustNew(t, 10, 5)
	valueLen := 1000
	if got, want := c.RepairReadCost(valueLen), 5*c.ShardSize(valueLen); got != want {
		t.Errorf("RepairReadCost = %d, want %d", got, want)
	}
	if c.ShardSize(valueLen) != 200 {
		t.Errorf("ShardSize(1000) = %d, want 200", c.ShardSize(valueLen))
	}
}

func TestStorageOverheadMatchesMBRComparison(t *testing.T) {
	// Per-node storage of RS is exactly 1/k of the value (Theta(1) overall),
	// the same order as MBR; the paper's Remark 2 bounds MBR at <= 2x this.
	c := mustNew(t, 12, 6)
	valueLen := 6 * 50
	perNode := c.ShardSize(valueLen)
	if perNode != 50 {
		t.Errorf("per-node storage = %d, want %d", perNode, 50)
	}
}

func TestRoundTripQuick(t *testing.T) {
	c := mustNew(t, 9, 4)
	rng := rand.New(rand.NewSource(11))
	f := func(raw []byte) bool {
		shards, err := c.Encode(raw)
		if err != nil {
			return false
		}
		picks := rng.Perm(9)[:4]
		sel := make([]erasure.Shard, 4)
		for i, p := range picks {
			sel[i] = erasure.Shard{Index: p, Data: shards[p]}
		}
		got, err := c.Decode(len(raw), sel)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("round trip: %v", err)
	}
}

func shards2(shards [][]byte, idx ...int) []erasure.Shard {
	out := make([]erasure.Shard, len(idx))
	for i, ix := range idx {
		out[i] = erasure.Shard{Index: ix, Data: shards[ix]}
	}
	return out
}

func BenchmarkEncode(b *testing.B) {
	c, err := New(14, 10)
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
