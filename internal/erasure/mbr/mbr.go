// Package mbr implements the product-matrix minimum-bandwidth-regenerating
// (MBR) code of Rashmi, Shah and Kumar ("Optimal Exact-Regenerating Codes
// for Distributed Storage at the MSR and MBR Points via a Product-Matrix
// Construction", IEEE Trans. IT 2011) -- reference [25] of the LDS paper.
//
// Parameters are {(n, k, d)(alpha = d*beta, beta = 1)} per stripe, with file
// size B = k*d - k*(k-1)/2 = k*(2d-k+1)/2 symbols. The construction encodes
// a symmetric (d x d) message matrix M with Psi = [Phi | Delta]; node i
// stores psi_i * M. Any d rows of Psi and any k of Phi must be invertible,
// as in a Vandermonde V and in V * B for B = [[Phi_S^-1, Phi_S^-1 Delta_S],
// [0, I]], S the nodes 0..k-1. That Psi is systematic: psi_i = [e_i | 0]
// for i < k, so node i stores row i of M, a helper toward it is lane i of
// the helper's shard, and Decode copies its rows. Only k rows can be unit
// rows; LDS puts them on L1 (n1 > k), whose reads regenerate and decode,
// not on L2, whose elements every write encodes.
//
// Two properties matter to the LDS algorithm:
//
//  1. Exact repair with helper data that depends only on the failed node's
//     index: helper i sends psi_i * M * psi_f^T, computable from its own
//     shard and f alone (paper Section II-c insists on this).
//  2. Operating at the MBR point, beta/B = 2/(k(2d-k+1)), which is what
//     drives the Theta(1) read cost of Lemma V.2.
//
// Layout is lane-major (package erasure): with L stripes, message symbol p
// of every stripe is one L-byte lane of the value, a shard is its d lanes
// psi_i * M back to back, a helper payload is one lane. Inputs are only
// read, every output is freshly allocated.
package mbr

import (
	"fmt"
	"hash/crc64"
	"slices"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/gf"
	"github.com/lds-storage/lds/internal/matrix"
)

// Code is a product-matrix MBR code. It is immutable after construction and
// safe for concurrent use.
type Code struct {
	params erasure.Params
	b      int            // stripe size B in bytes
	psi    *matrix.Matrix // n x d encoding matrix [Phi | Delta], rows 0..k-1 [e_i | 0]
	phi    *matrix.Matrix // n x k left block of psi
	all    []int          // 0..n-1, the node list of a full Encode
	layout []int          // message matrix M: symbol index per entry, -1 for zero
}

var _ erasure.Regenerating = (*Code)(nil)

// New constructs an MBR code for the given parameters.
func New(p erasure.Params) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	points := make([]byte, p.N)
	all := make([]int, p.N)
	for i := range points {
		points[i] = byte(i)
		all[i] = i
	}
	// Psi = V * B; B's first k rows are [Phi_S^-1 | Phi_S^-1 Delta_S].
	v := matrix.Vandermonde(points, p.D)
	vs := v.SelectRows(all[:p.K])
	inv, err := vs.ColRange(0, p.K).Inverse()
	if err != nil {
		return nil, err
	}
	b, top := matrix.Identity(p.D), inv.Mul(vs)
	for i := 0; i < p.K; i++ {
		copy(b.Row(i), top.Row(i))
		copy(b.Row(i), inv.Row(i))
	}
	psi := v.Mul(b)
	// psi_i[0] (i >= k) is the Lagrange basis polynomial of node 0 over S
	// at node i, so nonzero: scaling it to 1 makes that lane a plain XOR.
	for i := p.K; i < p.N; i++ {
		gf.MulSlice(gf.Inv(psi.At(i, 0)), psi.Row(i), psi.Row(i))
	}
	return &Code{
		params: p,
		b:      p.K*p.D - p.K*(p.K-1)/2,
		psi:    psi,
		phi:    psi.ColRange(0, p.K),
		all:    all,
		layout: messageLayout(p.K, p.D),
	}, nil
}

// Fingerprint is a CRC-64 over (n, k, d) and Psi: builds whose
// fingerprints differ store different bytes for one value.
func (c *Code) Fingerprint() uint64 {
	b := fmt.Appendf(nil, "mbr(%d,%d,%d) %v", c.params.N, c.params.K, c.params.D, c.psi)
	return crc64.Checksum(b, crc64.MakeTable(crc64.ECMA))
}

// Params returns the code parameters.
func (c *Code) Params() erasure.Params { return c.params }

// StripeSize returns B = k*(2d-k+1)/2 bytes.
func (c *Code) StripeSize() int { return c.b }

// NodeSymbols returns alpha = d bytes per stripe.
func (c *Code) NodeSymbols() int { return c.params.D }

// HelperSymbols returns beta = 1 byte per stripe.
func (c *Code) HelperSymbols() int { return 1 }

// Stripes returns the stripe count for a value of the given length.
func (c *Code) Stripes(valueLen int) int { return erasure.StripeCount(valueLen, c.b) }

// ShardSize returns alpha * stripes bytes.
func (c *Code) ShardSize(valueLen int) int { return c.Stripes(valueLen) * c.params.D }

// HelperSize returns beta * stripes bytes.
func (c *Code) HelperSize(valueLen int) int { return c.Stripes(valueLen) }

// messageLayout places the B message symbols in the symmetric d x d matrix
//
//	M = | S   T |
//	    | T^t 0 |
//
// where S is k x k symmetric (k(k+1)/2 symbols) and T is k x (d-k)
// (k(d-k) symbols): entry (r, c) of M is symbol layout[r*d+c], -1 in the
// zero block. M is symmetric, so row r and column r are the same d symbols.
func messageLayout(k, d int) []int {
	layout := make([]int, d*d)
	for i := range layout {
		layout[i] = -1
	}
	p := 0
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			layout[i*d+j], layout[j*d+i] = p, p
			p++
		}
	}
	for i := 0; i < k; i++ {
		for j := k; j < d; j++ {
			layout[i*d+j], layout[j*d+i] = p, p
			p++
		}
	}
	return layout
}

// encode computes the shards psi_i * M of the listed nodes.
func (c *Code) encode(value []byte, nodes []int) [][]byte {
	return erasure.EncodeLanes(c.psi, nodes, erasure.Lanes(value, c.b, c.layout), c.Stripes(len(value)))
}

// Encode splits value into n shards of ShardSize(len(value)) bytes each.
func (c *Code) Encode(value []byte) ([][]byte, error) {
	return c.encode(value, c.all), nil
}

// EncodeNode computes only node's shard; used where a single coded element
// is needed without materializing all n.
func (c *Code) EncodeNode(value []byte, node int) ([]byte, error) {
	if node < 0 || node >= c.params.N {
		return nil, fmt.Errorf("%w: %d", erasure.ErrIndexRange, node)
	}
	return c.encode(value, []int{node})[0], nil
}

// EncodeNodes computes the shards of only the listed nodes; the LDS edge
// servers use it to produce the C2 restriction (the n2 back-end elements)
// without materializing the full codeword.
func (c *Code) EncodeNodes(value []byte, nodes []int) ([][]byte, error) {
	if err := erasure.CheckDistinct(nodes, c.params.N); err != nil {
		return nil, err
	}
	return c.encode(value, nodes), nil
}

// Helper computes the repair data node helperIdx sends toward the repair of
// node failedIdx: one lane, h = c_i . psi_f.
func (c *Code) Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	return erasure.HelperLane(c.psi, shard, helperIdx, failedIdx)
}

// Regenerate rebuilds the shard of failedIdx from at least d helpers with
// distinct indices. With Psi_rep the d selected helper rows, the helpers
// satisfy Psi_rep * (M psi_f^T) = h, so inverting Psi_rep recovers
// M psi_f^T, whose transpose is psi_f M (M is symmetric) -- the lost shard.
func (c *Code) Regenerate(failedIdx int, helpers []erasure.Helper) ([]byte, error) {
	psiRep, lanes, err := erasure.RepairLanes(c.psi, failedIdx, helpers)
	if err != nil {
		return nil, err
	}
	inv, err := psiRep.Inverse()
	if err != nil {
		return nil, fmt.Errorf("erasure: repair matrix: %w", err)
	}
	return inv.MulLanes(lanes, len(lanes[0])), nil
}

// Decode recovers a value of the given original length from at least k
// shards with distinct indices. It takes systematic shards first and copies
// the rows of M they hold. With Psi_DC = [Phi_DC | Delta_DC] the k taken
// rows, the stacked shards equal
//
//	C = Psi_DC M = [Phi_DC S + Delta_DC T^t | Phi_DC T],
//
// so the rest of T is in Phi_DC^-1 * C_right and the rest of S in
// Phi_DC^-1 * (C_left - Delta_DC T^t), landing straight in the value.
func (c *Code) Decode(valueLen int, shards []erasure.Shard) ([]byte, error) {
	k, d := c.params.K, c.params.D
	l := c.Stripes(valueLen)
	var buf [8]erasure.Shard // on the stack for up to 8 shards
	sel, s := buf[:0], 0
	for _, sh := range shards {
		if sh.Index >= 0 && sh.Index < k {
			sel, s = slices.Insert(sel, s, sh), s+1
		} else {
			sel = append(sel, sh)
		}
	}
	sel, s = sel[:min(k, len(sel))], min(k, s)
	phiDC, err := erasure.DecodeShards(c.phi, k, d*l, sel)
	if err != nil {
		return nil, err
	}
	out := make([]byte, l*c.b)
	m := erasure.Lanes(out, c.b, c.layout)
	var held [256]bool // rows of M a systematic shard holds
	for _, sh := range sel[:s] {
		held[sh.Index] = true
		for j := 0; j < d; j++ {
			copy(m[sh.Index*d+j], sh.Data[j*l:(j+1)*l])
		}
	}
	if s == k {
		return out[:valueLen], nil
	}
	phiInv, err := phiDC.Inverse()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode matrix: %w", err)
	}
	// cw is C by columns: column j is cw[j*k:(j+1)*k], lane j of each shard.
	cw := make([][]byte, d*k)
	for i, sh := range sel {
		for j := 0; j < d; j++ {
			cw[j*k+i] = sh.Data[j*l : (j+1)*l]
		}
	}
	for r := 0; r < k; r++ {
		for j := k; j < d && !held[r]; j++ {
			matrix.AddMulLanes(phiInv.Row(r), cw[j*k:(j+1)*k], m[r*d+j])
		}
	}
	if d > k {
		// C_left - Delta_DC T^t replaces C_left where S needs it; entry
		// (i, j) subtracts delta_i . (row j of T), and delta_i = 0 for i < s.
		left := make([]byte, k*k*l)
		for j := 0; j < k; j++ {
			for i := s; i < k && !held[j]; i++ {
				lane := left[(j*k+i)*l : (j*k+i+1)*l]
				copy(lane, cw[j*k+i])
				matrix.AddMulLanes(c.psi.Row(sel[i].Index)[k:], m[j*d+k:(j+1)*d], lane)
				cw[j*k+i] = lane
			}
		}
	}
	// S is symmetric: its upper triangle is all the message holds.
	for j := 0; j < k; j++ {
		for r := 0; r <= j; r++ {
			if !held[r] && !held[j] {
				matrix.AddMulLanes(phiInv.Row(r), cw[j*k:(j+1)*k], m[r*d+j])
			}
		}
	}
	return out[:valueLen], nil
}
