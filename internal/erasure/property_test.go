package erasure_test

// Property-style randomized tests across all three code families. Each
// trial draws a random legal geometry and payload, encodes, erases a
// random legal pattern of shards, repairs every erased shard from the
// survivors, and finally decodes from a random k-subset — the full
// lifecycle the repair scheduler (internal/gateway/repair.go) exercises
// against live nodes, replayed here against the pure math. Seeded so a
// failing trial reproduces; each failure message carries the trial inputs.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/erasure/msr"
	"github.com/lds-storage/lds/internal/erasure/rs"
)

const propertySeed = 20260808

// family abstracts "pick a random legal geometry and build the code" per
// code construction, since each constrains (n, k, d) differently.
type family struct {
	name string
	// build draws a legal geometry using rng and returns the code.
	build func(rng *rand.Rand) (erasure.Regenerating, error)
}

func families() []family {
	return []family{
		{name: "mbr", build: func(rng *rand.Rand) (erasure.Regenerating, error) {
			// Any k <= d < n works for product-matrix MBR.
			k := 1 + rng.Intn(5)     // 1..5
			d := k + rng.Intn(4)     // k..k+3
			n := d + 1 + rng.Intn(4) // d+1..d+4
			return mbr.New(erasure.Params{N: n, K: k, D: d})
		}},
		{name: "msr", build: func(rng *rand.Rand) (erasure.Regenerating, error) {
			// MSR fixes d = 2k-2 and needs k >= 2, n > d.
			k := 2 + rng.Intn(4) // 2..5
			d := 2*k - 2
			n := d + 1 + rng.Intn(4) // d+1..d+4
			return msr.New(n, k)
		}},
		{name: "rs", build: func(rng *rand.Rand) (erasure.Regenerating, error) {
			// RS repair is naive: d = k, a helper ships its whole shard.
			k := 1 + rng.Intn(5)     // 1..5
			n := k + 1 + rng.Intn(5) // k+1..k+5
			return rs.NewRepair(n, k)
		}},
	}
}

// randomValue draws a payload whose length sweeps the interesting size
// classes: empty, shorter than a stripe, exactly stripe-aligned, and
// multi-stripe with a ragged tail.
func randomValue(rng *rand.Rand, stripeSize int) []byte {
	var n int
	switch rng.Intn(4) {
	case 0:
		n = 0
	case 1:
		n = 1 + rng.Intn(stripeSize)
	case 2:
		n = stripeSize * (1 + rng.Intn(3))
	default:
		n = stripeSize*(1+rng.Intn(3)) + 1 + rng.Intn(stripeSize)
	}
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// TestPropertyRepairThenDecode is the main property: for random geometry
// and payload, erase a random legal set of shards (at most n-d so every
// failure still has d live helpers), regenerate each lost shard from d
// random survivors, and check (a) regenerated bytes match the originals
// and (b) a random k-subset of the healed array decodes to the value.
func TestPropertyRepairThenDecode(t *testing.T) {
	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(propertySeed))
			for trial := 0; trial < 60; trial++ {
				code, err := f.build(rng)
				if err != nil {
					t.Fatalf("trial %d: build: %v", trial, err)
				}
				p := code.Params()
				value := randomValue(rng, code.StripeSize())
				ctx := fmt.Sprintf("trial %d n=%d k=%d d=%d len=%d",
					trial, p.N, p.K, p.D, len(value))

				shards, err := code.Encode(value)
				if err != nil {
					t.Fatalf("%s: Encode: %v", ctx, err)
				}

				// Erase a random legal pattern: 1..n-d shards, so d helpers
				// survive for every repair.
				maxErase := p.N - p.D
				if maxErase < 1 {
					maxErase = 1
				}
				erased := rng.Perm(p.N)[:1+rng.Intn(maxErase)]
				lost := make(map[int]bool, len(erased))
				for _, i := range erased {
					lost[i] = true
				}

				for _, failed := range erased {
					helpers := collectHelpers(t, code, shards, lost, failed, rng)
					got, err := code.Regenerate(failed, helpers)
					if err != nil {
						t.Fatalf("%s: Regenerate(%d): %v", ctx, failed, err)
					}
					if !bytes.Equal(got, shards[failed]) {
						t.Fatalf("%s: regenerated shard %d differs from original",
							ctx, failed)
					}
					shards[failed] = got
					delete(lost, failed) // healed shards may help later repairs
				}

				// The healed array must decode from any k shards; pick a
				// random subset that includes at least one repaired index
				// when one was erased.
				sub := make([]erasure.Shard, 0, p.K)
				order := append(append([]int{}, erased...), rng.Perm(p.N)...)
				seen := map[int]bool{}
				for _, i := range order {
					if len(sub) == p.K {
						break
					}
					if seen[i] {
						continue
					}
					seen[i] = true
					sub = append(sub, erasure.Shard{Index: i, Data: shards[i]})
				}
				dec, err := code.Decode(len(value), sub)
				if err != nil {
					t.Fatalf("%s: Decode: %v", ctx, err)
				}
				if !bytes.Equal(dec, value) {
					t.Fatalf("%s: decoded value differs from original", ctx)
				}
			}
		})
	}
}

// collectHelpers gathers exactly d helper payloads for failed from random
// live nodes.
func collectHelpers(t *testing.T, code erasure.Regenerating, shards [][]byte,
	lost map[int]bool, failed int, rng *rand.Rand) []erasure.Helper {
	t.Helper()
	p := code.Params()
	helpers := make([]erasure.Helper, 0, p.D)
	for _, i := range rng.Perm(p.N) {
		if len(helpers) == p.D {
			break
		}
		if i == failed || lost[i] {
			continue
		}
		h, err := code.Helper(shards[i], i, failed)
		if err != nil {
			t.Fatalf("Helper(%d -> %d): %v", i, failed, err)
		}
		helpers = append(helpers, erasure.Helper{Index: i, Data: h})
	}
	if len(helpers) < p.D {
		t.Fatalf("only %d live helpers for %d, need d=%d", len(helpers), failed, p.D)
	}
	return helpers
}

// TestPropertyHelperSizes checks the advertised repair-bandwidth accounting
// the gateway's token bucket meters against: every helper payload is
// exactly HelperSize bytes and every shard exactly ShardSize bytes, and
// for true regenerating codes (d > k) the helper is strictly smaller than
// the shard — the inequality MeasureRepair quantifies.
func TestPropertyHelperSizes(t *testing.T) {
	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(propertySeed + 1))
			for trial := 0; trial < 40; trial++ {
				code, err := f.build(rng)
				if err != nil {
					t.Fatalf("trial %d: build: %v", trial, err)
				}
				p := code.Params()
				value := randomValue(rng, code.StripeSize())
				shards, err := code.Encode(value)
				if err != nil {
					t.Fatalf("trial %d: Encode: %v", trial, err)
				}
				for i, s := range shards {
					if len(s) != code.ShardSize(len(value)) {
						t.Fatalf("trial %d: shard %d has %d bytes, want ShardSize=%d",
							trial, i, len(s), code.ShardSize(len(value)))
					}
				}
				failed := rng.Intn(p.N)
				helper := (failed + 1) % p.N
				h, err := code.Helper(shards[helper], helper, failed)
				if err != nil {
					t.Fatalf("trial %d: Helper: %v", trial, err)
				}
				if len(h) != code.HelperSize(len(value)) {
					t.Fatalf("trial %d: helper has %d bytes, want HelperSize=%d",
						trial, len(h), code.HelperSize(len(value)))
				}
				if p.D > p.K && code.HelperSize(len(value)) >= code.ShardSize(len(value)) {
					t.Fatalf("trial %d: regenerating code helper (%d B) not smaller than shard (%d B)",
						trial, code.HelperSize(len(value)), code.ShardSize(len(value)))
				}
			}
		})
	}
}

// TestPropertyEncodeNodeAgreesWithEncode: Encode, EncodeNode (the repair
// scheduler's naive fallback re-encodes a single node's element with it) and
// EncodeNodes (the L1 servers' offload encodes only the L2 elements with it)
// are wrappers over one encode path and must agree byte for byte in every
// family, or repaired and offloaded elements would diverge from written
// ones. Every length from empty to past three stripes is swept, so every
// way the zero padding can cut through, or swallow, a message lane occurs;
// each length also decodes back from a random k-subset.
func TestPropertyEncodeNodeAgreesWithEncode(t *testing.T) {
	type nodeEncoder interface {
		EncodeNode(value []byte, node int) ([]byte, error)
		EncodeNodes(value []byte, nodes []int) ([][]byte, error)
	}
	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(propertySeed + 2))
			for trial := 0; trial < 25; trial++ {
				code, err := f.build(rng)
				if err != nil {
					t.Fatalf("trial %d: build: %v", trial, err)
				}
				enc, ok := code.(nodeEncoder)
				if !ok {
					t.Fatalf("%T does not implement EncodeNode and EncodeNodes", code)
				}
				p := code.Params()
				for size := 0; size <= 3*code.StripeSize()+1; size++ {
					ctx := fmt.Sprintf("trial %d n=%d k=%d d=%d len=%d", trial, p.N, p.K, p.D, size)
					value := make([]byte, size)
					rng.Read(value)
					shards, err := code.Encode(value)
					if err != nil {
						t.Fatalf("%s: Encode: %v", ctx, err)
					}
					node := rng.Intn(p.N)
					got, err := enc.EncodeNode(value, node)
					if err != nil {
						t.Fatalf("%s: EncodeNode(%d): %v", ctx, node, err)
					}
					if !bytes.Equal(got, shards[node]) {
						t.Fatalf("%s: EncodeNode(%d) differs from Encode row", ctx, node)
					}
					nodes := rng.Perm(p.N)[:1+rng.Intn(p.N)]
					some, err := enc.EncodeNodes(value, nodes)
					if err != nil {
						t.Fatalf("%s: EncodeNodes(%v): %v", ctx, nodes, err)
					}
					for i, node := range nodes {
						if !bytes.Equal(some[i], shards[node]) {
							t.Fatalf("%s: EncodeNodes(%v) entry %d differs from Encode row %d", ctx, nodes, i, node)
						}
					}
					sub := make([]erasure.Shard, 0, p.K)
					for _, node := range rng.Perm(p.N)[:p.K] {
						sub = append(sub, erasure.Shard{Index: node, Data: shards[node]})
					}
					dec, err := code.Decode(size, sub)
					if err != nil {
						t.Fatalf("%s: Decode: %v", ctx, err)
					}
					if !bytes.Equal(dec, value) {
						t.Fatalf("%s: decoded value differs from original", ctx)
					}
				}
			}
		})
	}
}
