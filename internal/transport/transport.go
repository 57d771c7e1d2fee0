// Package transport defines the message-passing abstraction the protocols
// run on: reliable point-to-point links between named processes (paper,
// Section II-a). Two implementations exist: channet, an in-memory
// simulated network with configurable latency classes, crash injection and
// cost accounting, and tcpnet, a real TCP transport for deployments
// (static address books, or dynamic resolvers that map process ids onto a
// live cluster topology). On top of either, Namespace carves one network
// into disjoint per-group process-id spaces, which is how many
// independent LDS groups (the gateway's shards) share a single transport
// — in one process on channet, or across machines on tcpnet.
//
// The reliability contract is the paper's: once Send returns, delivery to
// a non-faulty destination is guaranteed even if the sender subsequently
// crashes; links need not be FIFO. A destination the transport cannot
// reach (a crashed process; over TCP, an unreachable peer) receives
// nothing — the crash-stop behavior every quorum argument assumes.
package transport

import (
	"time"

	"github.com/lds-storage/lds/internal/wire"
)

// Handler consumes delivered messages. The transport invokes a node's
// handler sequentially (one message at a time), which gives protocol code
// the atomic-action semantics of the paper's I/O-automata description.
// Nodes share goroutines (see Actors): a handler must not wait for another
// node's handler to run.
type Handler func(env wire.Envelope)

// Node is a registered process endpoint.
type Node interface {
	// ID returns the process id this node was registered under.
	ID() wire.ProcID
	// Send transmits msg to the destination process. A nil error means the
	// message is committed to the link (reliable delivery); it does not mean
	// the destination has processed it.
	Send(to wire.ProcID, msg wire.Message) error
	// Close unregisters the node and drops what is queued for it. It
	// returns once the handler is not running and will never run again, so
	// it must not be called from the node's own handler.
	Close() error
}

// Network registers process endpoints.
type Network interface {
	// Register adds a process with the given handler and returns its node.
	Register(id wire.ProcID, h Handler) (Node, error)
	// Close shuts the network down; all nodes stop receiving.
	Close() error
}

// LatencyModel bounds the delay of each link class. The classes follow the
// paper's Section V-A: tau1 for client<->L1 links, tau0 for L1<->L1 links
// and tau2 for links between the layers (typically the largest in edge
// deployments).
type LatencyModel struct {
	Tau0 time.Duration // L1 <-> L1
	Tau1 time.Duration // client <-> L1
	Tau2 time.Duration // L1 <-> L2

	// Jitter in [0, 1] draws each delay uniformly from
	// [tau*(1-Jitter), tau], keeping tau an upper bound as the bounded
	// latency analysis requires.
	Jitter float64

	// ChaosMax, when positive, overrides the class model with delays drawn
	// uniformly from [0, ChaosMax] regardless of link class. It exists to
	// stress message reordering in atomicity tests.
	ChaosMax time.Duration
}

// Uniform returns a model with the same bound on every class and no jitter.
func Uniform(d time.Duration) LatencyModel {
	return LatencyModel{Tau0: d, Tau1: d, Tau2: d}
}

// Class returns the configured bound for a (from, to) role pair.
func (m LatencyModel) Class(from, to wire.Role) time.Duration {
	switch {
	case from == wire.RoleL1 && to == wire.RoleL1:
		return m.Tau0
	case (from == wire.RoleL1 && to == wire.RoleL2) || (from == wire.RoleL2 && to == wire.RoleL1):
		return m.Tau2
	case from == wire.RoleL1 || to == wire.RoleL1:
		// Remaining L1 links are with clients.
		return m.Tau1
	default:
		return m.Tau1
	}
}

// IsZero reports whether the model introduces no delay at all.
func (m LatencyModel) IsZero() bool {
	return m.Tau0 == 0 && m.Tau1 == 0 && m.Tau2 == 0 && m.ChaosMax == 0
}
