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
	opts Options

	mu      sync.Mutex
	rng     *rand.Rand
	nodes   map[wire.ProcID]*node
	crashed map[wire.ProcID]bool
	closed  bool

	// inflight counts messages from Send acceptance until the destination
	// handler returns (or the message is discarded); WaitIdle polls it.
	inflight atomic.Int64
}

var _ transport.Network = (*Network)(nil)

// New creates a network with the given options.
func New(opts Options) *Network {
	return &Network{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		nodes:   make(map[wire.ProcID]*node),
		crashed: make(map[wire.ProcID]bool),
	}
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
	nd := &node{
		net:     n,
		id:      id,
		handler: h,
		mb:      newMailbox(),
		done:    make(chan struct{}),
	}
	n.nodes[id] = nd
	go nd.deliveryLoop()
	return nd, nil
}

// Crash marks a process as crashed: it will process and send no further
// messages. Crashing an unknown or already-crashed process is a no-op.
func (n *Network) Crash(id wire.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Crashed reports whether the process has been crashed.
func (n *Network) Crashed(id wire.ProcID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
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
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	nodes := make([]*node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.close()
	}
	return nil
}

// send accepts an envelope from a registered node.
func (n *Network) send(env wire.Envelope) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.crashed[env.From] {
		// A crashed process sends nothing. This is not an error the sender
		// can observe -- it is dead.
		n.mu.Unlock()
		return nil
	}
	dst, ok := n.nodes[env.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrUnknown, env.To)
	}
	delay := n.delayLocked(env.From.Role, env.To.Role)
	n.mu.Unlock()

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
	if !dst.mb.push(env) {
		n.inflight.Add(-1)
	}
}

// delayLocked samples the delivery delay. Callers hold n.mu (the rng is not
// otherwise synchronized).
func (n *Network) delayLocked(from, to wire.Role) time.Duration {
	m := n.opts.Latency
	if m.ChaosMax > 0 {
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
	return time.Duration(lo + n.rng.Float64()*(float64(base)-lo))
}

// node is one registered process endpoint.
type node struct {
	net     *Network
	id      wire.ProcID
	handler transport.Handler
	mb      *mailbox
	done    chan struct{}
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
	return nd.net.send(wire.Envelope{From: nd.id, To: to, Msg: msg})
}

// Close implements transport.Node.
func (nd *node) Close() error {
	nd.close()
	return nil
}

func (nd *node) close() {
	if nd.closed.Swap(true) {
		return
	}
	dropped := nd.mb.close()
	nd.net.inflight.Add(-int64(dropped))
	<-nd.done
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
}

// deliveryLoop drains the mailbox, invoking the handler one message at a
// time (the actor discipline protocol code relies on).
func (nd *node) deliveryLoop() {
	defer close(nd.done)
	for {
		env, ok := nd.mb.pop()
		if !ok {
			return
		}
		if !nd.net.Crashed(nd.id) {
			nd.handler(env)
		}
		nd.net.inflight.Add(-1)
	}
}

// mailbox is an unbounded FIFO queue. Unbounded is deliberate: reliable
// links must never exert backpressure that could deadlock two actors
// sending to each other.
type mailbox struct {
	mu     sync.Mutex
	items  []wire.Envelope // items[head:] is the queue; items[:head] is popped and zeroed
	head   int
	signal chan struct{}
	closed bool
}

func newMailbox() *mailbox {
	return &mailbox{signal: make(chan struct{}, 1)}
}

// push appends an item; it reports false if the mailbox is closed.
func (mb *mailbox) push(env wire.Envelope) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	if mb.head > len(mb.items)/2 && len(mb.items) == cap(mb.items) {
		// Full, and mostly popped slots (a queue that stays busy never
		// rewinds in pop): slide it down rather than grow the array.
		n := copy(mb.items, mb.items[mb.head:])
		clear(mb.items[n:])
		mb.items, mb.head = mb.items[:n], 0
	}
	mb.items = append(mb.items, env)
	mb.mu.Unlock()
	select {
	case mb.signal <- struct{}{}:
	default:
	}
	return true
}

// pop blocks for the next item; ok is false once the mailbox is closed and
// drained of the messages popped so far.
func (mb *mailbox) pop() (wire.Envelope, bool) {
	for {
		mb.mu.Lock()
		if mb.head < len(mb.items) {
			env := mb.items[mb.head]
			// Zero the slot, or the array pins the message (and the value
			// or shards it carries) long after delivery -- on an idle
			// server, forever -- and rewind once empty so push reuses the
			// array instead of allocating behind an ever-advancing front.
			mb.items[mb.head] = wire.Envelope{}
			if mb.head++; mb.head == len(mb.items) {
				mb.items, mb.head = mb.items[:0], 0
			}
			mb.mu.Unlock()
			return env, true
		}
		if mb.closed {
			mb.mu.Unlock()
			return wire.Envelope{}, false
		}
		mb.mu.Unlock()
		<-mb.signal
	}
}

// close marks the mailbox closed and returns the number of queued items it
// dropped, so the caller can reconcile the in-flight accounting.
func (mb *mailbox) close() int {
	mb.mu.Lock()
	mb.closed = true
	dropped := len(mb.items) - mb.head
	mb.items, mb.head = nil, 0
	mb.mu.Unlock()
	select {
	case mb.signal <- struct{}{}:
	default:
	}
	return dropped
}
