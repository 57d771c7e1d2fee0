// Package erasure defines the interfaces shared by the storage codes used in
// the LDS reproduction: the product-matrix MBR regenerating code the paper
// stores in the back-end layer, the product-matrix MSR code used for the
// Remark 1/2 ablations, and a classic Reed-Solomon code as the baseline
// erasure code the paper compares against in its related-work discussion.
//
// All codes share a striping model: a value of arbitrary length is padded to
// a whole number of stripes of StripeSize (the code's file size B, in bytes,
// since symbols are GF(2^8) elements). Each of the n nodes stores
// NodeSymbols bytes per stripe; a repair helper contributes HelperSymbols
// bytes per stripe.
//
// The layout is lane-major. With L = Stripes(len(value)), message symbol j
// of every stripe is the contiguous lane value[j*L:(j+1)*L] of the
// zero-padded value, a shard is its NodeSymbols output lanes back to back
// and a helper payload is HelperSymbols lanes. Every operation is then a
// small coefficient matrix, computed once per call, applied to whole lanes
// (matrix.AddMulLanes); nothing loops over stripes. Inputs are only read
// and may be aliased by the lanes; every output is freshly allocated.
package erasure

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/lds-storage/lds/internal/matrix"
)

// Common errors returned by the code implementations.
var (
	ErrShortShards   = errors.New("erasure: not enough shards to decode")
	ErrShortHelpers  = errors.New("erasure: not enough helpers to regenerate")
	ErrIndexRange    = errors.New("erasure: node index out of range")
	ErrDuplicateItem = errors.New("erasure: duplicate node index")
	ErrShardSize     = errors.New("erasure: shard has wrong size")
)

// Params carries the regenerating-code parameters {(n, k, d)}. For codes
// without a repair procedure (Reed-Solomon), D is conventionally set to K.
type Params struct {
	N int // number of storage nodes
	K int // any K node contents suffice to decode
	D int // number of helpers contacted during repair
}

// Validate checks the standard parameter constraints k <= d <= n-1 and
// n <= 256 (the field size bounds the number of distinct code symbols).
func (p Params) Validate() error {
	switch {
	case p.K < 1:
		return fmt.Errorf("erasure: k = %d, want >= 1", p.K)
	case p.D < p.K:
		return fmt.Errorf("erasure: d = %d < k = %d", p.D, p.K)
	case p.N <= p.D:
		return fmt.Errorf("erasure: n = %d, want > d = %d", p.N, p.D)
	case p.N > 256:
		return fmt.Errorf("erasure: n = %d exceeds GF(2^8) limit of 256", p.N)
	}
	return nil
}

// Shard is one node's stored content, tagged with the node index in [0, n).
type Shard struct {
	Index int
	Data  []byte
}

// Helper is the repair data one helper node contributes, tagged with the
// helper's node index.
type Helper struct {
	Index int
	Data  []byte
}

// Code is the interface common to all storage codes.
type Code interface {
	// Params returns the code parameters.
	Params() Params
	// StripeSize returns B, the number of value bytes per stripe.
	StripeSize() int
	// NodeSymbols returns alpha, the bytes stored per node per stripe.
	NodeSymbols() int
	// Stripes returns the number of stripes used for a value of the given
	// length (at least 1; zero-length values still occupy one stripe).
	Stripes(valueLen int) int
	// ShardSize returns the per-node storage in bytes for a value of the
	// given length.
	ShardSize(valueLen int) int
	// Encode splits a value into n shards. The value is padded internally;
	// callers must remember the original length to decode.
	Encode(value []byte) ([][]byte, error)
	// EncodeNode computes only node's shard of Encode's output.
	EncodeNode(value []byte, node int) ([]byte, error)
	// EncodeNodes computes the shards of only the listed nodes, which must
	// be distinct; the LDS edge servers use it to produce the n2 back-end
	// elements without materializing the full codeword.
	EncodeNodes(value []byte, nodes []int) ([][]byte, error)
	// Decode recovers a value of the given original length from at least k
	// shards with distinct indices.
	Decode(valueLen int, shards []Shard) ([]byte, error)
}

// Regenerating extends Code with the node-repair procedure of the
// regenerating-code framework. The construction used here guarantees that a
// helper's output depends only on the failed node's index, never on the
// identity of the other helpers -- the property the LDS algorithm requires
// (paper, Section II-c).
type Regenerating interface {
	Code
	// HelperSymbols returns beta, the bytes a helper sends per stripe.
	HelperSymbols() int
	// HelperSize returns the total helper payload for a value of the given
	// length.
	HelperSize(valueLen int) int
	// Helper computes the repair data node helperIdx (owning shard) sends
	// toward the repair of node failedIdx.
	Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error)
	// Regenerate rebuilds the shard of failedIdx from at least d helpers
	// with distinct indices, none of which may be failedIdx itself.
	Regenerate(failedIdx int, helpers []Helper) ([]byte, error)
}

// PadToStripes returns value padded with zeros to stripes*stripeSize bytes.
// A nil or empty value still occupies one stripe.
func PadToStripes(value []byte, stripeSize int) []byte {
	padded := make([]byte, StripeCount(len(value), stripeSize)*stripeSize)
	copy(padded, value)
	return padded
}

// Lanes views value, zero-padded to whole stripes, as message lanes of
// length L = StripeCount(len(value), stripeSize): lane p is
// value[p*L:(p+1)*L], cut short (possibly to nothing) where value ends --
// matrix.AddMulLanes reads a short lane as zero-extended, so the padding is
// never materialised and value is aliased, not copied. The result arranges
// the lanes by layout: entry i is lane layout[i], or nil for a negative
// layout[i] (a structural zero of the code's message matrix).
func Lanes(value []byte, stripeSize int, layout []int) [][]byte {
	l := StripeCount(len(value), stripeSize)
	lanes := make([][]byte, len(layout))
	for i, p := range layout {
		if p >= 0 {
			lanes[i] = value[min(p*l, len(value)):min((p+1)*l, len(value))]
		}
	}
	return lanes
}

// EncodeLanes is the one encode path of all three codes: node i stores
// psi_i * M, where the message matrix M is given column by column as lanes
// (column c is msg[c*psi.Cols():(c+1)*psi.Cols()]). It returns the shards of
// the listed nodes, each its len(msg)/psi.Cols() output lanes of laneLen
// bytes back to back.
func EncodeLanes(psi *matrix.Matrix, nodes []int, msg [][]byte, laneLen int) [][]byte {
	rows := psi.Cols()
	shards := make([][]byte, len(nodes))
	for i, node := range nodes {
		shards[i] = make([]byte, len(msg)/rows*laneLen)
		for c := 0; c*rows < len(msg); c++ {
			matrix.AddMulLanes(psi.Row(node), msg[c*rows:(c+1)*rows], shards[i][c*laneLen:(c+1)*laneLen])
		}
	}
	return shards
}

// HelperLane computes the repair lane node helperIdx, owning shard, sends
// toward the repair of node failedIdx in a product-matrix code: the shard's
// coef.Cols() lanes combined by row failedIdx of coef.
func HelperLane(coef *matrix.Matrix, shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	n, alpha := coef.Rows(), coef.Cols()
	if helperIdx < 0 || helperIdx >= n || failedIdx < 0 || failedIdx >= n {
		return nil, fmt.Errorf("%w: helper %d, failed %d", ErrIndexRange, helperIdx, failedIdx)
	}
	if helperIdx == failedIdx {
		return nil, fmt.Errorf("erasure: node %d cannot help repair itself", failedIdx)
	}
	if len(shard)%alpha != 0 || len(shard) == 0 {
		return nil, fmt.Errorf("%w: %d bytes, want multiple of alpha = %d", ErrShardSize, len(shard), alpha)
	}
	l := len(shard) / alpha
	if j := bytes.IndexByte(coef.Row(failedIdx), 1); j >= 0 && bytes.Count(coef.Row(failedIdx), []byte{0}) == alpha-1 {
		return bytes.Clone(shard[j*l : (j+1)*l]), nil // a unit row: the lane itself
	}
	lanes := make([][]byte, 0, 8) // on the stack for alpha <= 8
	for c := 0; c < alpha; c++ {
		lanes = append(lanes, shard[c*l:(c+1)*l])
	}
	out := make([]byte, l)
	matrix.AddMulLanes(coef.Row(failedIdx), lanes, out)
	return out, nil
}

// RepairLanes validates the helpers offered toward the repair of failedIdx
// -- at least d = coef.Cols() of them, with distinct in-range indices, none
// the failed node itself, and non-empty payloads of one length -- and
// returns, for the first d, their rows of coef and their payloads.
func RepairLanes(coef *matrix.Matrix, failedIdx int, helpers []Helper) (*matrix.Matrix, [][]byte, error) {
	n, d := coef.Rows(), coef.Cols()
	if failedIdx < 0 || failedIdx >= n {
		return nil, nil, fmt.Errorf("%w: %d", ErrIndexRange, failedIdx)
	}
	if len(helpers) < d {
		return nil, nil, fmt.Errorf("%w: have %d, need %d", ErrShortHelpers, len(helpers), d)
	}
	var seen indexSet
	rows, lanes := matrix.New(d, d), make([][]byte, d)
	for i, h := range helpers[:d] {
		if h.Index == failedIdx {
			return nil, nil, fmt.Errorf("erasure: node %d cannot help repair itself", failedIdx)
		}
		if len(h.Data) == 0 || len(h.Data) != len(helpers[0].Data) {
			return nil, nil, fmt.Errorf("%w: helper %d has %d bytes, want %d", ErrShardSize, h.Index, len(h.Data), len(helpers[0].Data))
		}
		if err := seen.add(h.Index, n); err != nil {
			return nil, nil, err
		}
		copy(rows.Row(i), coef.Row(h.Index))
		lanes[i] = h.Data
	}
	return rows, lanes, nil
}

// DecodeShards validates the shards offered to a decode -- at least k of
// them, each of shardSize bytes, with distinct in-range indices -- and
// returns the rows of coef of the first k.
func DecodeShards(coef *matrix.Matrix, k, shardSize int, shards []Shard) (*matrix.Matrix, error) {
	n := coef.Rows()
	if len(shards) < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrShortShards, len(shards), k)
	}
	var seen indexSet
	rows := matrix.New(k, coef.Cols())
	for i, sh := range shards[:k] {
		if len(sh.Data) != shardSize {
			return nil, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, sh.Index, len(sh.Data), shardSize)
		}
		if err := seen.add(sh.Index, n); err != nil {
			return nil, err
		}
		copy(rows.Row(i), coef.Row(sh.Index))
	}
	return rows, nil
}

// StripeCount returns the number of stripes a value of the given length
// occupies (at least 1).
func StripeCount(valueLen, stripeSize int) int {
	if valueLen <= 0 {
		return 1
	}
	return (valueLen + stripeSize - 1) / stripeSize
}

// indexSet is the set of node indices seen so far. Indices are bounded by
// the field size (n <= 256, enforced by Params.Validate), so membership is
// a four-word bitset on the stack rather than a per-call map -- this runs
// on every encode/decode/regenerate.
type indexSet [4]uint64

// add inserts idx, failing if it lies outside [0, n) or was already added.
func (s *indexSet) add(idx, n int) error {
	if idx < 0 || idx >= n || idx >= 256 {
		return fmt.Errorf("%w: %d (n = %d)", ErrIndexRange, idx, n)
	}
	if s[idx>>6]&(1<<(uint(idx)&63)) != 0 {
		return fmt.Errorf("%w: %d", ErrDuplicateItem, idx)
	}
	s[idx>>6] |= 1 << (uint(idx) & 63)
	return nil
}

// CheckDistinct verifies that shard/helper indices are distinct and within
// [0, n).
func CheckDistinct(indices []int, n int) error {
	var seen indexSet
	for _, idx := range indices {
		if err := seen.add(idx, n); err != nil {
			return err
		}
	}
	return nil
}
