package lds

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// This file is the only protocol code that touches a network: a process runs
// one machine's steps under its lock, and sends what each step queued only
// after releasing it (locksend checks that no send happens under it).

// machine is a role's state machine: L1Server, L2Server, WriteOp or ReadOp.
type machine interface {
	Step(from wire.ProcID, msg wire.Message, out *wire.Outbox)
}

// process is machine m registered on a network. mu serializes everything
// that touches m: deliveries, a client's Start, and the repair plane's calls.
type process[M machine] struct {
	id      wire.ProcID
	mu      sync.Mutex
	node    transport.Node
	m       M
	publish func()      // runs under mu after every step: gauges, wakeups
	out     wire.Outbox // the deliveries'; a node's handler never overlaps itself
}

// register attaches m to net as process id. It holds mu so that a delivery
// racing Register cannot reach flush before node is set.
func (p *process[M]) register(net transport.Network, id wire.ProcID, publish func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.id, p.publish = id, publish
	node, err := net.Register(id, p.handle)
	p.node = node
	return err
}

func (p *process[M]) handle(env wire.Envelope) {
	p.mu.Lock()
	p.m.Step(env.From, env.Msg, &p.out)
	p.publish()
	p.mu.Unlock()
	p.flush(&p.out)
}

// flush sends what a step queued and empties out. Sends fail only on a
// closed network or node or an unresolvable id; it returns the first error.
func (p *process[M]) flush(out *wire.Outbox) error {
	var first error
	for _, e := range out.Msgs {
		if err := p.node.Send(e.To, e.Msg); err != nil && first == nil {
			first = err
		}
	}
	out.Reset()
	return first
}

// ID returns the process id.
func (p *process[M]) ID() wire.ProcID { return p.id }

// L1Proc is an L1Server registered on a network. Its gauges are the
// server's as of its last step, and safe to read while traffic flows.
type L1Proc struct {
	process[*L1Server]
	temp, depth, violations atomic.Int64
}

// RegisterL1 registers NewL1Server(params, index, code, seed, incarnation)
// on net, with the wall clock in ns as the incarnation (see opSeq).
func RegisterL1(net transport.Network, params Params, index int, code erasure.Regenerating, seed tag.Tag) (*L1Proc, error) {
	s, err := NewL1Server(params, index, code, seed, opSeq())
	if err != nil {
		return nil, err
	}
	p := &L1Proc{process: process[*L1Server]{m: s}}
	return p, p.register(net, s.id, p.gauges)
}

func (p *L1Proc) gauges() {
	p.temp.Store(p.m.TemporaryBytes())
	p.depth.Store(p.m.OffloadQueueDepth())
	p.violations.Store(p.m.Violations())
}

// TemporaryBytes is the gauge of L1Server.TemporaryBytes.
func (p *L1Proc) TemporaryBytes() int64 { return p.temp.Load() }

// OffloadQueueDepth is the gauge of L1Server.OffloadQueueDepth.
func (p *L1Proc) OffloadQueueDepth() int64 { return p.depth.Load() }

// Violations is the gauge of L1Server.Violations.
func (p *L1Proc) Violations() int64 { return p.violations.Load() }

// Bookkeeping returns the server's current census.
func (p *L1Proc) Bookkeeping() L1Bookkeeping {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.Bookkeeping()
}

// L2Proc is an L2Server registered on a network. Its StoredBytes gauge and
// its repair-plane methods, which take the steps' lock, are safe to use
// while traffic flows.
type L2Proc struct {
	process[*L2Server]
	stored atomic.Int64
}

// RegisterL2 registers NewL2Server(params, index, code, value, seed) on net.
func RegisterL2(net transport.Network, params Params, index int, code erasure.Regenerating, value []byte, seed tag.Tag) (*L2Proc, error) {
	s, err := NewL2Server(params, index, code, value, seed)
	if err != nil {
		return nil, err
	}
	p := &L2Proc{process: process[*L2Server]{m: s}}
	p.gauges()
	return p, p.register(net, s.id, p.gauges)
}

func (p *L2Proc) gauges() { p.stored.Store(p.m.StoredBytes()) }

// StoredBytes is the gauge of L2Server.StoredBytes.
func (p *L2Proc) StoredBytes() int64 { return p.stored.Load() }

// ElemStat is L2Server.ElemStat.
func (p *L2Proc) ElemStat() wire.ElemStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.ElemStat()
}

// ElemData is L2Server.ElemData.
func (p *L2Proc) ElemData() (tag.Tag, []byte, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.ElemData()
}

// HelperToward is L2Server.HelperToward.
func (p *L2Proc) HelperToward(failedCode int) (tag.Tag, []byte, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.HelperToward(failedCode)
}

// InstallRepair is L2Server.InstallRepair.
func (p *L2Proc) InstallRepair(t tag.Tag, coded []byte, valueLen int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.gauges()
	return p.m.InstallRepair(t, coded, valueLen)
}

// CorruptStored is L2Server.CorruptStored.
func (p *L2Proc) CorruptStored() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.CorruptStored()
}

// clientOp is a WriteOp or a ReadOp.
type clientOp interface {
	machine
	Done() bool
	Phase() string
}

// client is a registered clientOp and the blocking call around it. Clients
// are well-formed (one operation at a time, paper Section II-a), so one
// completion channel and one Start outbox serve every operation.
type client[O clientOp] struct {
	process[O]
	wake     chan struct{} // buffered 1: the step that completes an op signals it
	startOut wire.Outbox
}

func (c *client[O]) signal() {
	if c.m.Done() {
		select {
		case c.wake <- struct{}{}:
		default: // already signalled
		}
	}
}

// run starts an operation and blocks until it is done or ctx expires. Its
// steps run on the network's goroutines; only start and the wait run here.
func (c *client[O]) run(ctx context.Context, start func(out *wire.Outbox)) error {
	c.mu.Lock()
	start(&c.startOut)
	select {
	case <-c.wake: // a completion left over from an abandoned operation
	default:
	}
	c.mu.Unlock()
	if err := c.flush(&c.startOut); err != nil {
		return fmt.Errorf("lds: %s operation: %w", c.id, err)
	}
	select {
	case <-c.wake:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		phase := c.m.Phase()
		c.mu.Unlock()
		return fmt.Errorf("%s: lds: %s operation: %w", phase, c.id, ctx.Err())
	}
}

// opSeq is where a registered client's op ids start (see opCore): above every
// op id an earlier registration of the id minted, in any process, since each
// op id costs a round trip and a round trip outlasts a nanosecond. It is
// also a registered L1 server's incarnation: larger than any earlier one's.
func opSeq() uint64 { return uint64(time.Now().UnixNano()) }

// Writer is a registered write client (paper, Fig. 1 left).
type Writer struct{ client[*WriteOp] }

// RegisterWriter registers the writer with the given positive id on net;
// ids order concurrent writes with equal z components, so they must be
// unique.
func RegisterWriter(net transport.Network, params Params, wid int32) (*Writer, error) {
	op, err := NewWriteOp(params, wid, opSeq())
	if err != nil {
		return nil, err
	}
	w := &Writer{client[*WriteOp]{process: process[*WriteOp]{m: op}, wake: make(chan struct{}, 1)}}
	return w, w.register(net, wire.ProcID{Role: wire.RoleWriter, Index: wid}, w.signal)
}

// Write performs one write operation and returns the tag it was written
// under. The operation completes after f1+k L1 servers acknowledge; the
// offload to L2 continues asynchronously and never delays the writer.
func (w *Writer) Write(ctx context.Context, value []byte) (tag.Tag, error) {
	// The caller may reuse value once Write returns, but on channet the L1
	// servers keep the PutData slice itself (and encode it for L2 well after
	// the f1+k acks that end this operation), so they get one private copy.
	v := bytes.Clone(value)
	if err := w.run(ctx, func(out *wire.Outbox) { w.m.Start(v, out) }); err != nil {
		return tag.Tag{}, err
	}
	return w.m.Tag(), nil
}

// Reader is a registered read client (paper, Fig. 1 right).
type Reader struct{ client[*ReadOp] }

// RegisterReader registers the reader with the given positive id on net.
func RegisterReader(net transport.Network, params Params, rid int32, code erasure.Regenerating) (*Reader, error) {
	op, err := NewReadOp(params, rid, code, opSeq())
	if err != nil {
		return nil, err
	}
	r := &Reader{client[*ReadOp]{process: process[*ReadOp]{m: op}, wake: make(chan struct{}, 1)}}
	return r, r.register(net, wire.ProcID{Role: wire.RoleReader, Index: rid}, r.signal)
}

// Read performs one read operation, returning the value and its tag. A
// value regenerated from coded elements is decoded here, on the caller.
func (r *Reader) Read(ctx context.Context) ([]byte, tag.Tag, error) {
	if err := r.run(ctx, r.m.Start); err != nil {
		return nil, tag.Tag{}, err
	}
	return r.m.Result()
}
