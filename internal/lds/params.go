// Package lds implements the Layered Data Storage algorithm of Konwar,
// Prakash, Lynch and Médard (PODC 2017): a two-layer erasure-coded
// multi-writer multi-reader atomic storage service.
//
// The package contains the four protocol roles of the paper's Figs. 1-3:
// writers and readers (clients of the edge layer L1), L1Server (the edge
// layer: temporary storage, reader registration, and the internal
// write-to-L2 / regenerate-from-L2 operations), and L2Server (the back-end
// layer: one (tag, coded-element) pair per server, stored under a
// regenerating code).
//
// Fault tolerance: f1 < n1/2 crashes in L1 and f2 < n2/3 crashes in L2,
// with n1 = 2*f1 + k and n2 = 2*f2 + d for an {(n1+n2, k, d)} MBR code.
//
// The roles are plain state machines (L1Server, L2Server, WriteOp, ReadOp)
// whose steps queue their sends in a wire.Outbox and never wait. runtime.go,
// the one adaptor, runs them on the simulated network (internal/sim), behind
// the gateway (internal/gateway) and over TCP (internal/nodehost); the step
// tests run them under a seeded scheduler — see docs/ARCHITECTURE.md.
package lds

import (
	"fmt"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/wire"
)

// OffloadMode selects how an L1 server moves committed values to L2.
type OffloadMode uint8

// Offload modes.
const (
	// OffloadBatched (the default) runs the write-to-L2 operation through a
	// per-server offload queue: at most one batch round is in flight at a
	// time, commits arriving meanwhile coalesce (a newer committed tag
	// supersedes queued older ones, which the L2 replace-if-newer rule makes
	// redundant), and each round sends one WriteCodeElemBatch per L2 server.
	OffloadBatched OffloadMode = iota
	// OffloadUnbatched is the paper-literal behavior: every committed tag
	// immediately fans out n2 individual WriteCodeElem messages.
	OffloadUnbatched
)

// OffloadBatchCap caps the coded elements per WriteCodeElemBatch and the
// tags the offload queue keeps: older pending tags beyond the cap are
// superseded and never travel. OffloadUnbatched mode does not queue.
const OffloadBatchCap = 4

// Params fixes the cluster geometry and the code parameters. The paper ties
// them together: n1 = 2*f1 + k and n2 = 2*f2 + d.
type Params struct {
	N1 int // servers in the edge layer L1
	N2 int // servers in the back-end layer L2
	F1 int // crash tolerance in L1 (f1 < n1/2)
	F2 int // crash tolerance in L2 (f2 < n2/3)
	K  int // code dimension: any k L1 coded elements decode the value
	D  int // repair degree: helpers needed by a regeneration

	// Offload selects the L1 -> L2 offload strategy; the zero value is the
	// batched pipeline.
	Offload OffloadMode
}

// NewParams derives (k, d) from the layer sizes and fault tolerances via
// the paper's identities k = n1 - 2*f1, d = n2 - 2*f2.
func NewParams(n1, n2, f1, f2 int) (Params, error) {
	p := Params{
		N1: n1, N2: n2, F1: f1, F2: f2,
		K: n1 - 2*f1, D: n2 - 2*f2,
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Validate checks the paper's constraints.
func (p Params) Validate() error {
	switch {
	case p.F1 < 0 || p.F2 < 0:
		return fmt.Errorf("lds: negative fault tolerance f1=%d f2=%d", p.F1, p.F2)
	case p.N1 != 2*p.F1+p.K:
		return fmt.Errorf("lds: n1 = %d, want 2*f1 + k = %d", p.N1, 2*p.F1+p.K)
	case p.N2 != 2*p.F2+p.D:
		return fmt.Errorf("lds: n2 = %d, want 2*f2 + d = %d", p.N2, 2*p.F2+p.D)
	case p.K < 1:
		return fmt.Errorf("lds: k = %d, want >= 1", p.K)
	case p.K > p.D:
		return fmt.Errorf("lds: k = %d > d = %d", p.K, p.D)
	case 2*p.F1 >= p.N1:
		return fmt.Errorf("lds: f1 = %d, want f1 < n1/2 = %d/2", p.F1, p.N1)
	case 3*p.F2 >= p.N2:
		return fmt.Errorf("lds: f2 = %d, want f2 < n2/3 = %d/3 (d > f2 makes regeneration quorums intersect)", p.F2, p.N2)
	case p.N1+p.N2 > 256:
		return fmt.Errorf("lds: n1+n2 = %d exceeds the GF(2^8) limit of 256 code symbols", p.N1+p.N2)
	case p.Offload > OffloadUnbatched:
		return fmt.Errorf("lds: unknown offload mode %d", p.Offload)
	}
	return nil
}

// WriteQuorum returns f1 + k, the number of L1 acknowledgments client
// phases wait for. Any two such quorums intersect in at least k servers.
func (p Params) WriteQuorum() int { return p.F1 + p.K }

// L2Quorum returns n2 - f2 = f2 + d, the number of L2 responses internal
// operations wait for; any two intersect in at least d servers.
func (p Params) L2Quorum() int { return p.N2 - p.F2 }

// RelayCount returns f1 + 1, the size of the broadcast relay set.
func (p Params) RelayCount() int { return p.F1 + 1 }

// CodeParams returns the {(n1+n2, k, d)} parameters of the overall code C.
func (p Params) CodeParams() erasure.Params {
	return erasure.Params{N: p.N1 + p.N2, K: p.K, D: p.D}
}

// NewCode constructs the MBR code C shared (by construction, not by
// reference) across the cluster. C1 is its restriction to indices
// [0, n1) and C2 to [n1, n1+n2); both restrictions are implicit in the
// node indices passed to the code's methods.
func (p Params) NewCode() (erasure.Regenerating, error) {
	return mbr.New(p.CodeParams())
}

// CodeFingerprint identifies the code NewCode builds. A gateway and a node
// host serve a group together only when their fingerprints agree: builds
// whose codes differ store and decode different bytes for one value.
func (p Params) CodeFingerprint() (uint64, error) {
	c, err := mbr.New(p.CodeParams())
	if err != nil {
		return 0, err
	}
	return c.Fingerprint(), nil
}

// L1IDs returns the process ids of all L1 servers, in index order. The
// order matters: the broadcast relay set is the first f1+1 of them.
func (p Params) L1IDs() []wire.ProcID {
	ids := make([]wire.ProcID, p.N1)
	for i := range ids {
		ids[i] = wire.ProcID{Role: wire.RoleL1, Index: int32(i)}
	}
	return ids
}

// L2IDs returns the process ids of all L2 servers, in index order.
func (p Params) L2IDs() []wire.ProcID {
	ids := make([]wire.ProcID, p.N2)
	for i := range ids {
		ids[i] = wire.ProcID{Role: wire.RoleL2, Index: int32(i)}
	}
	return ids
}

// L2CodeIndex maps an L2 server index to its code symbol index n1 + i.
func (p Params) L2CodeIndex(i int) int { return p.N1 + i }
