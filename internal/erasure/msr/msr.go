// Package msr implements the product-matrix minimum-storage-regenerating
// (MSR) code of Rashmi, Shah and Kumar (IEEE Trans. IT 2011) at d = 2k-2,
// the construction's native operating point.
//
// The LDS paper uses this code only in its ablations: Remark 1 shows that
// substituting MSR for MBR in the back-end layer raises the concurrency-free
// read cost from Theta(1) to Omega(n1), and Remark 2 notes MBR pays at most
// a 2x storage premium over MSR. This package makes both remarks measurable.
//
// Per stripe: alpha = k-1 = d-k+1, beta = 1, B = k*alpha = k(k-1) symbols.
// The message is two symmetric alpha x alpha matrices S1, S2 stacked as
// M = [S1; S2]; the encoding matrix is Psi = [Phi | Lambda*Phi] with Phi
// Vandermonde and Lambda diagonal with distinct entries. Node i stores
// psi_i * M.
//
// Layout is lane-major (package erasure): a shard is its alpha lanes
// psi_i * M back to back, a helper payload is one lane. Inputs are only
// read, every output is freshly allocated.
package msr

import (
	"fmt"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/gf"
	"github.com/lds-storage/lds/internal/matrix"
)

// Code is a product-matrix MSR code at d = 2k-2. Immutable and safe for
// concurrent use.
type Code struct {
	params erasure.Params
	alpha  int
	b      int
	phi    *matrix.Matrix // n x alpha
	lambda []byte         // n distinct diagonal entries
	psi    *matrix.Matrix // n x d = [Phi | Lambda*Phi]
	all    []int          // 0..n-1, the node list of a full Encode
	layout []int          // message matrix M by columns: symbol index per entry
}

var _ erasure.Regenerating = (*Code)(nil)

// New constructs an MSR code with n nodes and dimension k >= 2; d is fixed
// to 2k-2 by the construction.
func New(n, k int) (*Code, error) {
	if k < 2 {
		return nil, fmt.Errorf("msr: k = %d, want >= 2 (d = 2k-2 must be >= k)", k)
	}
	d := 2*k - 2
	p := erasure.Params{N: n, K: k, D: d}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	alpha := k - 1

	points, lambda, err := pickPoints(n, alpha)
	if err != nil {
		return nil, err
	}
	phi := matrix.Vandermonde(points, alpha)
	psi := matrix.New(n, d)
	all := make([]int, n)
	for i := 0; i < n; i++ {
		row := psi.Row(i)
		copy(row[:alpha], phi.Row(i))
		gf.MulSlice(lambda[i], phi.Row(i), row[alpha:])
		all[i] = i
	}
	return &Code{params: p, alpha: alpha, b: k * alpha, phi: phi, lambda: lambda, psi: psi, all: all, layout: messageLayout(alpha)}, nil
}

// pickPoints selects n distinct field elements whose alpha-th powers are
// also pairwise distinct; the powers become the Lambda diagonal. With
// psi_i = [phi_i | x_i^alpha * phi_i] each psi row is the length-2alpha
// Vandermonde row of x_i, so any d = 2alpha rows of Psi are invertible.
func pickPoints(n, alpha int) (points, lambda []byte, err error) {
	seen := make(map[byte]bool, n)
	for x := 0; x < 256 && len(points) < n; x++ {
		lam := gf.Pow(byte(x), alpha)
		if seen[lam] {
			continue
		}
		seen[lam] = true
		points = append(points, byte(x))
		lambda = append(lambda, lam)
	}
	if len(points) < n {
		return nil, nil, fmt.Errorf("msr: GF(2^8) yields only %d usable evaluation points for alpha = %d, need %d", len(points), alpha, n)
	}
	return points, lambda, nil
}

// Params returns the code parameters.
func (c *Code) Params() erasure.Params { return c.params }

// StripeSize returns B = k*(k-1) bytes.
func (c *Code) StripeSize() int { return c.b }

// NodeSymbols returns alpha = k-1 bytes per stripe.
func (c *Code) NodeSymbols() int { return c.alpha }

// HelperSymbols returns beta = 1 byte per stripe.
func (c *Code) HelperSymbols() int { return 1 }

// Stripes returns the stripe count for a value of the given length.
func (c *Code) Stripes(valueLen int) int { return erasure.StripeCount(valueLen, c.b) }

// ShardSize returns alpha * stripes bytes.
func (c *Code) ShardSize(valueLen int) int { return c.Stripes(valueLen) * c.alpha }

// HelperSize returns beta * stripes bytes.
func (c *Code) HelperSize(valueLen int) int { return c.Stripes(valueLen) }

// messageLayout places the B message symbols in the d x alpha matrix
// M = [S1; S2] of two symmetric alpha x alpha blocks (alpha(alpha+1)/2
// symbols each, S1 first), column by column: entry (r, c) of M is symbol
// layout[c*d+r].
func messageLayout(alpha int) []int {
	d := 2 * alpha
	layout := make([]int, alpha*d)
	p := 0
	for block := 0; block < d; block += alpha {
		for i := 0; i < alpha; i++ {
			for j := i; j < alpha; j++ {
				layout[j*d+block+i], layout[i*d+block+j] = p, p
				p++
			}
		}
	}
	return layout
}

// encode computes the shards psi_i * M = phi_i*S1 + lambda_i*phi_i*S2 of
// the listed nodes.
func (c *Code) encode(value []byte, nodes []int) [][]byte {
	return erasure.EncodeLanes(c.psi, nodes, erasure.Lanes(value, c.b, c.layout), c.Stripes(len(value)))
}

// Encode splits value into n shards of ShardSize(len(value)) bytes each.
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

// EncodeNodes computes the shards of only the listed nodes (the C2
// restriction used when MSR substitutes for MBR in the ablation benches).
func (c *Code) EncodeNodes(value []byte, nodes []int) ([][]byte, error) {
	if err := erasure.CheckDistinct(nodes, c.params.N); err != nil {
		return nil, err
	}
	return c.encode(value, nodes), nil
}

// Helper computes the one-lane repair data toward failedIdx:
// h = c_i . phi_f. As with MBR, it depends only on the failed node's index.
func (c *Code) Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	return erasure.HelperLane(c.phi, shard, helperIdx, failedIdx)
}

// Regenerate rebuilds failedIdx's shard from at least d = 2k-2 helpers.
// Stacking d helper equations gives Psi_rep * [S1 phi_f^T; S2 phi_f^T] = h;
// inverting Psi_rep yields u = S1 phi_f^T and v = S2 phi_f^T, and the lost
// shard is u^T + lambda_f * v^T, i.e. [I | lambda_f I] * Psi_rep^-1 * h.
func (c *Code) Regenerate(failedIdx int, helpers []erasure.Helper) ([]byte, error) {
	psiRep, lanes, err := erasure.RepairLanes(c.psi, failedIdx, helpers)
	if err != nil {
		return nil, err
	}
	inv, err := psiRep.Inverse()
	if err != nil {
		return nil, fmt.Errorf("msr: repair matrix: %w", err)
	}
	fold := inv.SelectRows(c.all[:c.alpha])
	for r := 0; r < c.alpha; r++ {
		gf.AddMulSlice(c.lambda[failedIdx], inv.Row(c.alpha+r), fold.Row(r))
	}
	return fold.MulLanes(lanes, len(lanes[0])), nil
}

// Decode recovers the value from at least k shards. Following the
// product-matrix MSR data-reconstruction procedure: with C the stacked
// shards, A = C * Phi_DC^T has entries A_ij = P_ij + lambda_i * Q_ij where
// P = Phi S1 Phi^T and Q = Phi S2 Phi^T are symmetric. Off-diagonal P_ij,
// Q_ij follow from the 2x2 systems {A_ij, A_ji}; each row of P (off-diagonal
// entries) then determines phi_i*S1 because any alpha of the phi rows are
// independent, and finally S1 = (alpha rows of Phi_DC)^-1 * rows. Same for
// S2.
func (c *Code) Decode(valueLen int, shards []erasure.Shard) ([]byte, error) {
	k, a := c.params.K, c.alpha
	l := c.Stripes(valueLen)
	phiDC, err := erasure.DecodeShards(c.phi, k, a*l, shards) // k x alpha
	if err != nil {
		return nil, err
	}

	// A by lanes: entry (i, j) is phi_j applied to shard i's alpha lanes.
	// The diagonal is never used.
	abuf := make([]byte, k*k*l)
	at := func(i, j int) []byte { return abuf[(i*k+j)*l : (i*k+j+1)*l] }
	ci := make([][]byte, a)
	for i, sh := range shards[:k] {
		for col := range ci {
			ci[col] = sh.Data[col*l : (col+1)*l]
		}
		for j := 0; j < k; j++ {
			if j != i {
				matrix.AddMulLanes(phiDC.Row(j), ci, at(i, j))
			}
		}
	}
	// A_ij = P_ij + lam_i Q_ij and A_ji = P_ij + lam_j Q_ij (i < j), solved in
	// place: P_ij ends up where A_ij was, Q_ij where A_ji was.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			li, lj := c.lambda[shards[i].Index], c.lambda[shards[j].Index]
			p, q := at(i, j), at(j, i)
			gf.AddSlice(p, q)
			gf.MulSlice(gf.Inv(gf.Sub(li, lj)), q, q) // nonzero: lambdas distinct
			gf.AddMulSlice(li, q, p)
		}
	}

	// S = (first alpha rows of Phi_DC)^-1 applied to those rows of Phi_DC*S.
	phiTopInv, err := phiDC.SelectRows(c.all[:a]).Inverse()
	if err != nil {
		return nil, fmt.Errorf("msr: Phi_DC top block singular: %w", err)
	}
	out := make([]byte, l*c.b)
	m := erasure.Lanes(out, c.b, c.layout)
	// Row i of Phi_DC*S solves w_i * [phi_j^T]_{j != i} = P_i,offdiag, i.e.
	// w_i^T = (Phi_DC without row i)^-1 * P_i,offdiag^T; likewise for Q.
	// phiS holds both products by columns: entry (i, col) of block b is
	// phiS[(b*a+col)*a+i].
	phiS := make([][]byte, 2*a*a)
	others, offdiag := make([]int, a), make([][]byte, a)
	for i := 0; i < a; i++ {
		for j := range others {
			others[j] = j
			if j >= i {
				others[j] = j + 1
			}
		}
		solver, err := phiDC.SelectRows(others).Inverse()
		if err != nil {
			return nil, fmt.Errorf("msr: row solver %d singular: %w", i, err)
		}
		for b := 0; b < 2; b++ {
			for t, j := range others {
				lo, hi := min(i, j), max(i, j)
				if b == 1 {
					lo, hi = hi, lo
				}
				offdiag[t] = at(lo, hi)
			}
			w := solver.MulLanes(offdiag, l)
			for col := 0; col < a; col++ {
				phiS[(b*a+col)*a+i] = w[col*l : (col+1)*l]
			}
		}
	}
	// S1 and S2 are symmetric: their upper triangles are all the message
	// holds. Entry (r, col) of block b is M's entry (b*a+r, col).
	d := c.params.D
	for b := 0; b < 2; b++ {
		for r := 0; r < a; r++ {
			for col := r; col < a; col++ {
				matrix.AddMulLanes(phiTopInv.Row(r), phiS[(b*a+col)*a:(b*a+col+1)*a], m[col*d+b*a+r])
			}
		}
	}
	return out[:valueLen], nil
}
