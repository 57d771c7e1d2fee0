package rs

import (
	"fmt"

	"github.com/lds-storage/lds/internal/erasure"
)

// RepairCode adapts the Reed-Solomon code to the erasure.Regenerating
// interface with the naive repair procedure: a helper contributes its whole
// shard (beta = alpha = B/k) and the replacement decodes the value from k
// shards and re-encodes its own.
//
// This is exactly an MSR-point code operated at d = k, the configuration
// the paper's Remark 1 analyses for the symmetric system (n1 = n2,
// f1 = f2 forces d = k): regeneration pulls k * B/k = B bytes -- one whole
// value -- into every L1 server, which is what drives the read cost to
// Omega(n1). Plugging a RepairCode into the LDS cluster makes that remark
// measurable against the MBR default.
type RepairCode struct {
	*Code
}

var _ erasure.Regenerating = (*RepairCode)(nil)

// NewRepair constructs an (n, k) Reed-Solomon code with naive repair.
func NewRepair(n, k int) (*RepairCode, error) {
	c, err := New(n, k)
	if err != nil {
		return nil, err
	}
	return &RepairCode{Code: c}, nil
}

// HelperSymbols returns beta = alpha = 1 symbol per stripe: the helper
// sends its entire shard.
func (c *RepairCode) HelperSymbols() int { return c.NodeSymbols() }

// HelperSize returns the helper payload: the whole shard.
func (c *RepairCode) HelperSize(valueLen int) int { return c.ShardSize(valueLen) }

// Helper returns the helper's full shard; with naive repair the helper data
// is the stored content itself (it still depends only on the helper, never
// on the other helpers, so the LDS requirement holds trivially).
func (c *RepairCode) Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	n := c.Params().N
	if helperIdx < 0 || helperIdx >= n || failedIdx < 0 || failedIdx >= n {
		return nil, fmt.Errorf("%w: helper %d, failed %d", erasure.ErrIndexRange, helperIdx, failedIdx)
	}
	if helperIdx == failedIdx {
		return nil, fmt.Errorf("erasure: node %d cannot help repair itself", failedIdx)
	}
	out := make([]byte, len(shard))
	copy(out, shard)
	return out, nil
}

// Regenerate rebuilds the failed node's shard from d = k helper shards: the
// helpers decode to the message lanes, which the failed node's encoding row
// re-encodes -- one coefficient row, enc_f * Enc_rep^-1, over the helpers.
func (c *RepairCode) Regenerate(failedIdx int, helpers []erasure.Helper) ([]byte, error) {
	encRep, lanes, err := erasure.RepairLanes(c.enc, failedIdx, helpers)
	if err != nil {
		return nil, err
	}
	inv, err := encRep.Inverse()
	if err != nil {
		return nil, fmt.Errorf("rs: repair matrix: %w", err)
	}
	return c.enc.SelectRows([]int{failedIdx}).Mul(inv).MulLanes(lanes, len(lanes[0])), nil
}
