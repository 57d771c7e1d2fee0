// Package rs implements a systematic Reed-Solomon code over GF(2^8).
//
// In the LDS paper, Reed-Solomon is the "popular choice" the back-end code
// is compared against (Section I): it matches MBR/MSR codes on storage
// overhead but lacks a bandwidth-efficient repair procedure -- repairing a
// single node requires downloading k full shards, i.e. the entire value.
// The package exists to serve as that baseline in the benchmark harness and
// to exercise the shared erasure.Code interface with a non-regenerating
// code.
//
// The construction is a Vandermonde matrix row-reduced to systematic form:
// the top k rows are the identity, so the first k shards are plain chunks of
// the value, and any k of the n shards reconstruct the value.
package rs

import (
	"fmt"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/matrix"
)

// Code is a systematic Reed-Solomon code. Immutable and safe for concurrent
// use.
type Code struct {
	params erasure.Params
	enc    *matrix.Matrix // n x k systematic encoding matrix
	all    []int          // 0..n-1, the node list of a full Encode
}

var _ erasure.Code = (*Code)(nil)

// New constructs an (n, k) Reed-Solomon code. The D parameter is forced to K
// because RS repair is naive reconstruction from k shards.
func New(n, k int) (*Code, error) {
	p := erasure.Params{N: n, K: k, D: k}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	points := make([]byte, n)
	all := make([]int, n)
	for i := range points {
		points[i] = byte(i)
		all[i] = i
	}
	vand := matrix.Vandermonde(points, k)
	topInv, err := vand.SelectRows(all[:k]).Inverse()
	if err != nil {
		return nil, fmt.Errorf("rs: systematize: %w", err)
	}
	return &Code{params: p, enc: vand.Mul(topInv), all: all}, nil
}

// Params returns the code parameters (with D = K).
func (c *Code) Params() erasure.Params { return c.params }

// StripeSize returns k: one byte per node per stripe.
func (c *Code) StripeSize() int { return c.params.K }

// NodeSymbols returns 1 (alpha for RS is one symbol per stripe).
func (c *Code) NodeSymbols() int { return 1 }

// Stripes returns the stripe count for a value of the given length.
func (c *Code) Stripes(valueLen int) int { return erasure.StripeCount(valueLen, c.params.K) }

// ShardSize returns the per-node bytes for a value of the given length.
func (c *Code) ShardSize(valueLen int) int { return c.Stripes(valueLen) }

// encode computes the shards of the listed nodes: shard i is row i of the
// encoding matrix applied to the k message lanes.
func (c *Code) encode(value []byte, nodes []int) [][]byte {
	return erasure.EncodeLanes(c.enc, nodes, erasure.Lanes(value, c.params.K, c.all[:c.params.K]), c.Stripes(len(value)))
}

// Encode splits value into n shards of ShardSize(len(value)) bytes.
// Because the code is systematic, shard i < k is lane i of the (padded)
// value: bytes [i*L, (i+1)*L) with L = Stripes(len(value)).
func (c *Code) Encode(value []byte) ([][]byte, error) {
	return c.encode(value, c.all), nil
}

// EncodeNode computes a single node's shard.
func (c *Code) EncodeNode(value []byte, node int) ([]byte, error) {
	if node < 0 || node >= c.params.N {
		return nil, fmt.Errorf("%w: %d", erasure.ErrIndexRange, node)
	}
	return c.encode(value, []int{node})[0], nil
}

// EncodeNodes computes the shards of only the listed nodes.
func (c *Code) EncodeNodes(value []byte, nodes []int) ([][]byte, error) {
	if err := erasure.CheckDistinct(nodes, c.params.N); err != nil {
		return nil, err
	}
	return c.encode(value, nodes), nil
}

// Decode reconstructs a value of the given original length from at least k
// shards with distinct indices: the inverse of their k encoding rows,
// applied to the shards, is the k message lanes.
func (c *Code) Decode(valueLen int, shards []erasure.Shard) ([]byte, error) {
	k := c.params.K
	l := c.Stripes(valueLen)
	encDC, err := erasure.DecodeShards(c.enc, k, l, shards)
	if err != nil {
		return nil, err
	}
	inv, err := encDC.Inverse()
	if err != nil {
		return nil, fmt.Errorf("rs: decode matrix: %w", err)
	}
	data := make([][]byte, k)
	for i, sh := range shards[:k] {
		data[i] = sh.Data
	}
	return inv.MulLanes(data, l)[:valueLen], nil
}

// RepairReadCost returns the number of bytes that must be transferred to
// repair one node's shard for a value of the given length: k whole shards.
// This is the quantity the regenerating-code benchmarks compare against.
func (c *Code) RepairReadCost(valueLen int) int {
	return c.params.K * c.ShardSize(valueLen)
}
