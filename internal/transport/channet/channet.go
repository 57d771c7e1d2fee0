// Package channet implements the transport interfaces as an in-memory
// simulated network.
//
// Properties (matching the paper's model, Section II-a):
//
//   - Reliable point-to-point links: a message accepted by Send is delivered
//     to a non-faulty destination even if the sender crashes right after --
//     delivery is driven by per-message timers, never by the sender.
//   - Asynchrony: per-class latency bounds with optional jitter, or fully
//     random "chaos" delays for reordering stress; links are not FIFO.
//   - Crash failures: a crashed process consumes no further messages and can
//     send none, with crash effective immediately (possibly between the
//     individual sends of one action, which is exactly the failure the
//     paper's broadcast primitive defends against).
//
// Every delivered or dropped message passes through an optional Observer,
// which is how the cost accountant measures communication.
package channet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// Common errors.
var (
	ErrClosed     = errors.New("channet: network closed")
	ErrDuplicate  = errors.New("channet: process already registered")
	ErrUnknown    = errors.New("channet: unknown destination")
	ErrNotIdle    = errors.New("channet: network did not become idle")
	errNodeClosed = errors.New("channet: node closed")
)

// Observer receives every envelope accepted by Send, before delivery.
// Implementations must be safe for concurrent use.
type Observer func(env wire.Envelope)

// Options configures a Network.
type Options struct {
	// Latency is the link delay model; the zero value delivers immediately.
	Latency transport.LatencyModel
	// Seed makes the jitter/chaos delays reproducible.
	Seed int64
	// Observer, when non-nil, sees every sent envelope.
	Observer Observer
}

// Network is an in-memory simulated network.
type Network struct {
	opts   Options
	actors *transport.Actors

	// mu guards the tables; the per-message path only reads them.
	mu      sync.RWMutex
	nodes   map[wire.ProcID]*node
	crashed map[wire.ProcID]bool // also on each node, where send and delivery read it
	closed  bool

	rngMu sync.Mutex // rng is drawn from only under a jittered or chaos model
	rng   *rand.Rand

	// inflight counts messages from Send acceptance until the destination
	// handler returns (or the message is discarded); WaitIdle polls it.
	inflight atomic.Int64
}

var _ transport.Network = (*Network)(nil)

// New creates a network with the given options.
func New(opts Options) *Network {
	n := &Network{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		nodes:   make(map[wire.ProcID]*node),
		crashed: make(map[wire.ProcID]bool),
	}
	n.actors = transport.NewActors(func(done int) { n.inflight.Add(-int64(done)) })
	return n
}

// Register implements transport.Network.
func (n *Network) Register(id wire.ProcID, h transport.Handler) (transport.Node, error) {
	if h == nil {
		return nil, fmt.Errorf("channet: nil handler for %v", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("%w: %v", ErrDuplicate, id)
	}
	nd := &node{net: n, id: id, handler: h}
	nd.crashed.Store(n.crashed[id]) // a Crash issued before Register applies
	nd.proc = n.actors.Attach(id, nd.handle)
	n.nodes[id] = nd
	return nd, nil
}

// Crash marks a process as crashed: it will process and send no further
// messages. Crashing an unknown or already-crashed process is a no-op.
func (n *Network) Crash(id wire.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
	if nd, ok := n.nodes[id]; ok {
		nd.crashed.Store(true)
	}
}

// WaitIdle blocks until no messages are in flight (queued, delayed or being
// handled), or the deadline elapses. It is the benchmark harness's way of
// waiting for the asynchronous tail of an operation (for example the
// internal write-to-L2 traffic that continues after a write returns).
func (n *Network) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if n.inflight.Load() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v (%d in flight)", ErrNotIdle, timeout, n.inflight.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Inflight returns the number of messages currently in flight.
func (n *Network) Inflight() int64 { return n.inflight.Load() }

// Close implements transport.Network. Messages still in flight are
// discarded as their timers fire.
func (n *Network) Close() error {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.actors.Close()
	return nil
}

// send accepts an envelope from a registered, live node.
func (n *Network) send(env wire.Envelope) error {
	n.mu.RLock()
	closed, dst := n.closed, n.nodes[env.To]
	n.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if dst == nil {
		return fmt.Errorf("%w: %v", ErrUnknown, env.To)
	}
	delay := n.delay(env.From.Role, env.To.Role)

	if obs := n.opts.Observer; obs != nil {
		obs(env)
	}
	n.inflight.Add(1)
	if delay <= 0 {
		n.deliver(dst, env)
		return nil
	}
	// The timer, not the sender, owns delivery: the link stays reliable
	// even if the sender crashes immediately after Send returns.
	time.AfterFunc(delay, func() { n.deliver(dst, env) })
	return nil
}

// deliver enqueues the envelope at its destination; if the destination is
// gone the message is dropped and accounted.
func (n *Network) deliver(dst *node, env wire.Envelope) {
	if !dst.proc.Deliver(env) {
		n.inflight.Add(-1)
	}
}

// delay samples the delivery delay.
func (n *Network) delay(from, to wire.Role) time.Duration {
	m := n.opts.Latency
	if m.ChaosMax > 0 {
		n.rngMu.Lock()
		defer n.rngMu.Unlock()
		return time.Duration(n.rng.Int63n(int64(m.ChaosMax) + 1))
	}
	base := m.Class(from, to)
	if base <= 0 {
		return 0
	}
	if m.Jitter <= 0 {
		return base
	}
	lo := float64(base) * (1 - m.Jitter)
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(lo + n.rng.Float64()*(float64(base)-lo))
}

// node is one registered process endpoint.
type node struct {
	net     *Network
	id      wire.ProcID
	handler transport.Handler
	proc    *transport.Process
	crashed atomic.Bool
	closed  atomic.Bool
}

var _ transport.Node = (*node)(nil)

// ID implements transport.Node.
func (nd *node) ID() wire.ProcID { return nd.id }

// Send implements transport.Node.
func (nd *node) Send(to wire.ProcID, msg wire.Message) error {
	if nd.closed.Load() {
		return errNodeClosed
	}
	if nd.crashed.Load() {
		// A crashed process sends nothing. This is not an error the sender
		// can observe -- it is dead.
		return nil
	}
	return nd.net.send(wire.Envelope{From: nd.id, To: to, Msg: msg})
}

// Close implements transport.Node. It returns once the handler is not
// running and never will again; what is queued for the node is dropped.
func (nd *node) Close() error {
	if nd.closed.Swap(true) {
		return nil
	}
	nd.proc.Close()
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	return nil
}

// handle is the process's entry in the actor runtime: a crashed process
// consumes its messages without acting on them.
func (nd *node) handle(env wire.Envelope) {
	if !nd.crashed.Load() {
		nd.handler(env)
	}
}
