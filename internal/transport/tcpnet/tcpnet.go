// Package tcpnet implements the transport interfaces over real TCP
// sockets, so the same protocol code that runs on the simulated network
// deploys as an actual distributed system (cmd/lds-node and the gateway's
// remote TCP shards).
//
// Addressing is pluggable: a static AddressBook maps process ids to
// host:port pairs, and an optional Resolver answers ids the book does not
// know — which is how namespaced shard-group ids (L1/(g<<16|i)) are mapped
// onto the per-process address spaces of a live cluster topology. Locally
// hosted processes are always delivered directly, without a socket or an
// address entry.
//
// Each Network instance owns one listener and hosts any number of local
// processes. Outbound traffic to each remote address is owned by a
// dedicated sender goroutine behind a bounded queue of envelopes: Send
// enqueues and returns, so protocol actors never block on a dead peer's
// socket. The sender dials lazily (bounded by DialTimeout and aborted by
// Close), enables TCP keepalive as the link heartbeat, writes under a
// deadline, and redials once immediately when a write fails — which is
// what reconnects after a peer process restarts. While a peer stays
// unreachable the sender drops envelopes (counted by Dropped) instead of
// blocking, exactly the crash-model semantics the protocol is proved
// against: messages to a faulty process vanish, messages to a live one
// are delivered. Incoming frames are routed to the destination process's
// actor (transport.Actors: an unbounded queue, so neither a read loop nor a
// local sender ever blocks on a slow process) and handled one at a time;
// torn or oversized frames drop only the offending connection.
//
// The two directions mirror each other, and neither shares a buffer with
// another goroutine. A sender drains whatever is queued behind the
// envelope it woke for, encodes the burst into one byte slice it owns
// and reuses (up to maxWriteBatch frames or readBufferSize bytes, about
// one read on the peer), and writes it with one Write; the kernel copies
// on write, so the slice is free again when Write returns. Each accepted
// connection has one read goroutine with one readBufferSize bufio.Reader,
// so a burst is taken in with about one read syscall and frames are
// parsed out of the buffer. Each frame's body is copied into its own
// freshly allocated slice, which the alias decode hands to the message;
// the read buffer itself never leaves the read loop.
//
// Encoding happens on the sender goroutine, after Send has returned, so a
// message must not change once it is sent (transport.Node.Send).
//
// Framing: 4-byte big-endian length, then wire.EncodeEnvelope bytes.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// maxFrameSize rejects absurd frames before allocating (64 MiB).
const maxFrameSize = 64 << 20

// readBufferSize is each accepted connection's receive buffer, and the
// size at which a sender stops adding frames to a burst: one burst is
// about one read syscall on the peer. Once a body still needs at least
// this many bytes, bufio reads them straight into the body instead of
// through the buffer.
const readBufferSize = 32 << 10

// maxWriteBatch bounds how many queued envelopes one burst may coalesce.
const maxWriteBatch = 64

// sendQueue is the per-destination outbound queue length; a full queue to
// a live peer backpressures Send. At 32-byte envelopes the ring holds
// 32 KiB per sender. The channel touches every slot as it wraps, so a
// longer queue costs resident memory on every sender even if it never
// fills (EXPERIMENTS.md measured 4096 slots against this one).
const sendQueue = 1024

// Defaults for Options knobs left zero.
const (
	defaultDialTimeout   = 5 * time.Second
	defaultWriteTimeout  = 10 * time.Second
	defaultKeepAlive     = 15 * time.Second
	defaultRedialBackoff = 250 * time.Millisecond
)

// Common errors.
var (
	ErrClosed     = errors.New("tcpnet: network closed")
	ErrDuplicate  = errors.New("tcpnet: process already registered")
	ErrNoAddress  = errors.New("tcpnet: no address for destination")
	ErrFrameSize  = errors.New("tcpnet: frame exceeds size limit")
	ErrNoSuchNode = errors.New("tcpnet: destination process not hosted here")
)

// AddressBook maps process ids to listen addresses.
type AddressBook map[wire.ProcID]string

// Resolver answers addresses for process ids the static book does not
// contain. It must be safe for concurrent use; returning ok=false makes
// Send fail with ErrNoAddress.
type Resolver func(wire.ProcID) (string, bool)

// Options configures a Network beyond its listen address.
type Options struct {
	// Book is the static id -> address map; may be nil when a Resolver is
	// given. The book is consulted before the resolver.
	Book AddressBook
	// Resolver answers ids missing from the book (dynamic topologies:
	// namespaced shard-group ids, control endpoints learned at runtime).
	Resolver Resolver
	// DialTimeout bounds each outbound connection attempt; dials are also
	// aborted by Close. <= 0 selects 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds each burst write, so a sender on a stalled
	// connection fails over to a redial instead of blocking forever.
	// <= 0 selects 10s.
	WriteTimeout time.Duration
	// KeepAlive is the TCP keepalive period applied to every connection,
	// the transport's liveness heartbeat. <= 0 selects 15s.
	KeepAlive time.Duration
	// RedialBackoff is how long a sender waits after a failed dial before
	// trying that address again; envelopes sent meanwhile are dropped
	// (the peer is crashed as far as the protocol is concerned). <= 0
	// selects 250ms.
	RedialBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = defaultKeepAlive
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = defaultRedialBackoff
	}
	return o
}

// Network hosts local processes and connects to remote ones.
type Network struct {
	opts     Options
	listener net.Listener
	actors   *transport.Actors

	// closeCtx aborts in-flight dials and unblocks queued sends when the
	// network closes.
	closeCtx  context.Context
	closeStop context.CancelFunc

	mu      sync.Mutex
	nodes   map[wire.ProcID]*node
	senders map[string]*sender
	ins     map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	dropped atomic.Uint64 // envelopes discarded toward unreachable peers
	redials atomic.Uint64 // successful reconnects after a write failure
}

var _ transport.Network = (*Network)(nil)

// New starts a network listening on listenAddr (for example "127.0.0.1:0";
// use Addr to discover the bound port) with a static address book and
// default hardening options.
func New(listenAddr string, book AddressBook) (*Network, error) {
	return NewNetwork(listenAddr, Options{Book: book})
}

// NewNetwork starts a network listening on listenAddr with full options.
func NewNetwork(listenAddr string, opts Options) (*Network, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen: %w", err)
	}
	n := &Network{
		opts:     opts.withDefaults(),
		listener: ln,
		actors:   transport.NewActors(func(int) {}),
		nodes:    make(map[wire.ProcID]*node),
		senders:  make(map[string]*sender),
		ins:      make(map[net.Conn]struct{}),
	}
	n.closeCtx, n.closeStop = context.WithCancel(context.Background())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address.
func (n *Network) Addr() string { return n.listener.Addr().String() }

// Dropped returns the number of outbound envelopes discarded because their
// destination was unreachable (dial failed, write failed after the redial,
// or the peer stayed in dial backoff). Under the crash model these are
// messages to faulty processes; a steadily climbing count against a peer
// that should be alive indicates a topology or network problem.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

// Redials returns how many times a sender that had been connected before
// established a new connection — the "peer restarted" recovery path. The
// dial is counted before anything is written on it, so a receiver that sees
// a frame from the new connection also sees the count.
func (n *Network) Redials() uint64 { return n.redials.Load() }

// Drain waits up to timeout for every outbound queue to empty and every
// in-flight write to finish, returning whether it got there. It is a
// best-effort flush for fire-and-forget control traffic ahead of Close
// (envelopes to unreachable peers drain by being dropped, so a dead node
// cannot stall it beyond its dial backoff).
func (n *Network) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if n.sendersIdle() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (n *Network) sendersIdle() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.senders {
		// pending covers an envelope from before it is enqueued until its
		// write returns, so there is no window where one is dequeued but
		// not yet counted as in flight.
		if s.pending.Load() > 0 {
			return false
		}
	}
	return true
}

// Register implements transport.Network.
func (n *Network) Register(id wire.ProcID, h transport.Handler) (transport.Node, error) {
	if h == nil {
		return nil, fmt.Errorf("tcpnet: nil handler for %v", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("%w: %v", ErrDuplicate, id)
	}
	nd := &node{net: n, id: id, proc: n.actors.Attach(id, h)}
	n.nodes[id] = nd
	return nd, nil
}

// Close implements transport.Network. It aborts in-flight dials, closes
// every connection (unblocking any sender mid-write) and waits for all
// internal goroutines to exit, so no goroutine or descriptor outlives it.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	senders := make([]*sender, 0, len(n.senders))
	for _, s := range n.senders {
		senders = append(senders, s)
	}
	ins := make([]net.Conn, 0, len(n.ins))
	for c := range n.ins {
		ins = append(ins, c)
	}
	n.mu.Unlock()

	n.closeStop() // aborts dials and wakes queued sends
	n.listener.Close()
	for _, s := range senders {
		s.closeConn()
	}
	// Accepted connections must be closed explicitly: their read loops
	// otherwise wait for the remote to hang up, and a remote shutting down
	// concurrently waits for us -- a distributed shutdown deadlock.
	for _, c := range ins {
		c.Close()
	}
	n.actors.Close()
	n.wg.Wait()
	return nil
}

// resolve maps a destination id to its address: static book first, then
// the dynamic resolver.
func (n *Network) resolve(id wire.ProcID) (string, bool) {
	if addr, ok := n.opts.Book[id]; ok {
		return addr, true
	}
	if n.opts.Resolver != nil {
		return n.opts.Resolver(id)
	}
	return "", false
}

// send routes an envelope: locally hosted destinations are delivered
// directly; remote ones are enqueued on the destination address's sender.
func (n *Network) send(env wire.Envelope) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if local, ok := n.nodes[env.To]; ok {
		n.mu.Unlock()
		local.proc.Deliver(env)
		return nil
	}
	n.mu.Unlock()

	addr, ok := n.resolve(env.To)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoAddress, env.To)
	}
	s, err := n.senderFor(addr)
	if err != nil {
		return err
	}
	return s.enqueue(env)
}

// senderFor returns (creating if needed) the sender goroutine owning the
// outbound link to addr.
func (n *Network) senderFor(addr string) (*sender, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if s, ok := n.senders[addr]; ok {
		return s, nil
	}
	s := &sender{net: n, addr: addr, q: make(chan wire.Envelope, sendQueue)}
	n.senders[addr] = s
	n.wg.Add(1)
	go s.loop()
	return s, nil
}

// acceptLoop ingests remote frames.
func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		configureConn(conn, n.opts.KeepAlive)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.ins[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Network) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.ins, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufferSize)
	for {
		env, err := readFrame(br)
		if err != nil {
			if errors.Is(err, errSkipFrame) {
				// The frame was consumed whole but does not decode — most
				// likely a message kind from a newer binary on the peer
				// (a mixed-version fleet mid-upgrade). The length-prefixed
				// stream is still aligned, so dropping just this frame is
				// the crash-model drop; resetting the connection would
				// punish every other flow sharing it.
				continue
			}
			// EOF, a torn frame (the peer died mid-write) or an oversized
			// length prefix: drop this connection; the peer's sender will
			// redial and stream fresh, whole frames.
			return
		}
		n.mu.Lock()
		nd, ok := n.nodes[env.To]
		n.mu.Unlock()
		if ok {
			nd.proc.Deliver(env)
		}
		// Frames for processes not hosted here are dropped: static topology
		// errors, not transient conditions.
	}
}

// configureConn applies the keepalive heartbeat to a connection.
func configureConn(conn net.Conn, period time.Duration) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(period)
	}
}

// node is a locally hosted process.
type node struct {
	net  *Network
	id   wire.ProcID
	proc *transport.Process
}

var _ transport.Node = (*node)(nil)

// ID implements transport.Node.
func (nd *node) ID() wire.ProcID { return nd.id }

// Send implements transport.Node. A nil return means the message was
// delivered locally or committed to the destination's outbound queue;
// messages to unreachable peers are silently dropped later, which is the
// crash-model behavior protocol code expects (a crashed process receives
// nothing, a live one everything).
func (nd *node) Send(to wire.ProcID, msg wire.Message) error {
	return nd.net.send(wire.Envelope{From: nd.id, To: to, Msg: msg})
}

// Close implements transport.Node. It returns once the handler is not
// running and never will again; what is queued for the node is dropped.
func (nd *node) Close() error {
	nd.proc.Close()
	nd.net.mu.Lock()
	if nd.net.nodes[nd.id] == nd {
		delete(nd.net.nodes, nd.id)
	}
	nd.net.mu.Unlock()
	return nil
}

// sender owns the outbound link to one remote address: a bounded envelope
// queue drained by a single goroutine that encodes, dials lazily, writes
// under a deadline, redials once on write failure, and drops envelopes
// (counted) while the peer is unreachable. Send callers therefore never
// touch a socket and can never be blocked by a dead peer; Close unblocks a
// write in progress by closing the connection out from under it.
type sender struct {
	net  *Network
	addr string
	q    chan wire.Envelope

	mu   sync.Mutex // guards conn handoff between loop and closeConn
	conn net.Conn

	// pending counts envelopes accepted by enqueue whose write (or drop)
	// has not finished yet; Drain's idleness test reads it, so it must be
	// incremented before an envelope becomes visible in q and decremented
	// only after it is fully handled.
	pending      atomic.Int64
	noDialBefore time.Time // dial backoff deadline after a failed attempt
	connected    bool      // a dial has succeeded before: the next one is a redial
}

// enqueue commits an envelope to the sender's queue. It blocks only when
// the queue is full toward a live-but-slow peer (backpressure); a dead
// peer's queue keeps draining via drops, and Close wakes all waiters.
func (s *sender) enqueue(env wire.Envelope) error {
	s.pending.Add(1)
	select {
	case s.q <- env:
		return nil
	case <-s.net.closeCtx.Done():
		s.pending.Add(-1)
		return ErrClosed
	}
}

func (s *sender) loop() {
	defer s.net.wg.Done()
	defer s.closeConn()
	var buf []byte // this goroutine's burst buffer, reused across bursts
	for {
		select {
		case env := <-s.q:
			// Coalesce everything already queued behind env into one
			// write: under load the queue is deep and the syscall cost
			// amortizes across the whole burst.
			burst, frames := encodeBurst(buf[:0], env, s.q)
			s.write(burst, frames)
			s.pending.Add(-int64(frames))
			// Keep the buffer for the next burst unless one huge message
			// grew it: that capacity would stay pinned for the sender's
			// lifetime.
			buf = burst
			if cap(buf) > 2*readBufferSize {
				buf = nil
			}
		case <-s.net.closeCtx.Done():
			return
		}
	}
}

// encodeBurst appends first, then whatever is already queued on q, to buf
// as length-prefixed frames. It stops at maxWriteBatch frames or once the
// burst holds readBufferSize bytes, whichever comes first, and returns the
// burst and how many envelopes it holds.
func encodeBurst(buf []byte, first wire.Envelope, q <-chan wire.Envelope) ([]byte, int) {
	buf = appendFrame(buf, first)
	frames := 1
	for frames < maxWriteBatch && len(buf) < readBufferSize {
		select {
		case env := <-q:
			buf = appendFrame(buf, env)
			frames++
		default:
			return buf, frames
		}
	}
	return buf, frames
}

// appendFrame appends env as one frame: the 4-byte length prefix is
// reserved up front, the envelope encoded behind it and the prefix
// patched afterwards, so the body is encoded once and never copied.
func appendFrame(buf []byte, env wire.Envelope) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = wire.AppendEnvelope(buf, env)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// write pushes one burst of frames, establishing the connection if
// needed. Failures drop the whole burst and count each of its envelopes;
// the peer is crashed as far as the protocol is concerned until a later
// dial succeeds.
func (s *sender) write(burst []byte, frames int) {
	conn := s.current()
	if conn == nil {
		if time.Now().Before(s.noDialBefore) {
			s.net.dropped.Add(uint64(frames))
			return
		}
		var err error
		if conn, err = s.dial(); err != nil {
			s.noDialBefore = time.Now().Add(s.net.opts.RedialBackoff)
			s.net.dropped.Add(uint64(frames))
			return
		}
		s.noDialBefore = time.Time{}
	}
	if err := s.writeConn(conn, burst); err != nil {
		// One immediate redial: the remote may have restarted.
		s.closeConn()
		conn, err = s.dial()
		if err != nil {
			s.noDialBefore = time.Now().Add(s.net.opts.RedialBackoff)
			s.net.dropped.Add(uint64(frames))
			return
		}
		if err = s.writeConn(conn, burst); err != nil {
			s.closeConn()
			s.net.dropped.Add(uint64(frames))
		}
	}
}

// dial establishes the connection, bounded by DialTimeout and aborted by
// network Close.
func (s *sender) dial() (net.Conn, error) {
	ctx, cancel := context.WithTimeout(s.net.closeCtx, s.net.opts.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", s.addr)
	if err != nil {
		return nil, err
	}
	configureConn(conn, s.net.opts.KeepAlive)
	if s.connected {
		s.net.redials.Add(1)
	}
	s.connected = true
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	return conn, nil
}

func (s *sender) current() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// writeConn writes one burst under the write deadline. The deadline (and
// closeConn closing the socket concurrently) bounds how long the sender
// can be stuck on a stalled or dead connection.
func (s *sender) writeConn(conn net.Conn, burst []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.net.opts.WriteTimeout))
	_, err := conn.Write(burst)
	return err
}

// closeConn closes the current connection (if any) without touching the
// queue. Safe to call from outside the sender goroutine: net.Conn.Close
// is concurrency-safe and unblocks an in-flight Write.
func (s *sender) closeConn() {
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// errSkipFrame wraps a decode failure of a frame that was consumed whole:
// the stream is still frame-aligned, so the reader may skip it and carry
// on (unknown message kinds from a newer peer binary land here).
var errSkipFrame = errors.New("tcpnet: undecodable frame")

// readFrame parses the next frame out of a connection's read buffer. The
// buffer refills with whatever the socket holds, so consecutive calls on a
// burst cost one read syscall between them, not two per frame.
func readFrame(r *bufio.Reader) (wire.Envelope, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return wire.Envelope{}, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrameSize {
		return wire.Envelope{}, fmt.Errorf("%w: %d bytes", ErrFrameSize, size)
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	// The body buffer is fresh per frame and handed off to the decoded
	// message wholesale (alias decode): payload fields point into it
	// instead of being copied out one by one. It is never pooled, and never
	// a slice of the read buffer — several message kinds retain their
	// payloads indefinitely (see the retention rules in wire/messages.go),
	// so recycling either would corrupt stored state.
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return wire.Envelope{}, err
	}
	env, err := wire.DecodeEnvelopeAlias(body)
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("%w: %v", errSkipFrame, err)
	}
	return env, nil
}
