package lds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// ErrNoNode is returned when a client operation starts before Bind.
var ErrNoNode = errors.New("lds: client not bound to a transport node")

// OpKind identifies the kind of a completed client operation for
// instrumentation.
type OpKind uint8

// Client operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String returns "write" or "read".
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// OpObserver receives one callback per completed client operation: the
// kind, its wall-clock duration, the value bytes moved between application
// and store (0 on failure), and the operation's error, if any. Observers
// are how pooling front-ends such as internal/gateway account per-shard
// load without wrapping every call site. The callback runs on the
// operation's goroutine after the operation finishes; keep it cheap.
type OpObserver func(op OpKind, d time.Duration, payloadBytes int, err error)

// respSet tracks which servers have been counted in the current client
// phase without per-phase allocation: stamp[i] == seq means server i is
// counted. Resetting bumps seq, an O(1) wipe. Indices are group-local
// (0..n1-1 — the namespace view translates gateway-wide ids before
// protocol code sees them), so a slice the size of the layer suffices.
type respSet struct {
	stamp []uint64
	seq   uint64
	n     int
}

func (r *respSet) reset(size int) {
	if cap(r.stamp) < size {
		r.stamp = make([]uint64, size)
	} else {
		r.stamp = r.stamp[:size]
	}
	r.seq++
	r.n = 0
}

// add marks server i counted and reports whether it was new. Out-of-range
// indices (not a well-formed group-local id) are never counted.
func (r *respSet) add(i int32) bool {
	if i < 0 || int(i) >= len(r.stamp) || r.stamp[i] == r.seq {
		return false
	}
	r.stamp[i] = r.seq
	r.n++
	return true
}

func (r *respSet) count() int { return r.n }

// clientCore is the machinery shared by Writer and Reader: a mailbox fed by
// the transport handler and a per-client operation sequence. Clients are
// well-formed (one operation at a time, paper Section II-a), so a single
// response channel suffices; responses from superseded operations are
// filtered by OpID. phase is the quorum-membership scratch reused by every
// sequential client phase (pooled clients in the gateway recycle it
// automatically on checkout).
type clientCore struct {
	params Params
	id     wire.ProcID
	node   transport.Node
	inbox  chan wire.Envelope
	opSeq  uint64
	obs    OpObserver
	phase  respSet

	// What Handle admits, set by the operation's goroutine and read by the
	// transport's: the op id of the phase being collected (0 between
	// operations) and, in a put-data phase, the tag being written.
	mu      sync.Mutex
	awaitOp uint64
	awaitTw tag.Tag
}

func newClientCore(params Params, id wire.ProcID) clientCore {
	return clientCore{
		params: params,
		id:     id,
		// Handle admits only answers to the phase in flight, so the inbox
		// holds at most that phase's responses (a server may answer a
		// get-data twice) and the previous phase's stragglers: under 4*n1
		// envelopes even if collect never runs.
		inbox: make(chan wire.Envelope, 4*(params.N1+1)),
	}
}

// Handle is the transport handler. It runs on the transport's delivery
// goroutine, which WaitIdle and Close wait for, so it never blocks: a
// response that does not answer the phase in flight is dropped (a client
// that finished its operation keeps receiving late and relayed responses,
// and nothing drains the inbox then), and so is one that finds the inbox
// full.
func (c *clientCore) Handle(env wire.Envelope) {
	c.mu.Lock()
	op, tw := c.awaitOp, c.awaitTw
	c.mu.Unlock()
	var answers bool
	switch m := env.Msg.(type) {
	case wire.QueryTagResp:
		answers = m.OpID == op
	case wire.PutDataResp:
		// The broadcast-threshold ack carries no op id; the tag names the
		// write on both ack paths.
		answers = m.Tag == tw
	case wire.QueryCommTagResp:
		answers = m.OpID == op
	case wire.QueryDataResp:
		answers = m.OpID == op
	case wire.PutTagResp:
		answers = m.OpID == op
	}
	if op == 0 || !answers {
		return
	}
	select {
	case c.inbox <- env:
	default:
	}
}

// await opens the next phase: it mints the phase's op id and makes Handle
// admit answers to it, and to nothing else. tw is the tag a put-data phase
// writes, the zero tag in every other phase.
func (c *clientCore) await(tw tag.Tag) uint64 {
	c.opSeq++
	c.mu.Lock()
	c.awaitOp, c.awaitTw = c.opSeq, tw
	c.mu.Unlock()
	return c.opSeq
}

// Bind attaches the transport node.
func (c *clientCore) Bind(node transport.Node) { c.node = node }

// ID returns the client's process id.
func (c *clientCore) ID() wire.ProcID { return c.id }

// observe closes the operation (Handle drops everything from here on) and
// reports it to the observer, if one is set.
func (c *clientCore) observe(op OpKind, start time.Time, payloadBytes int, err error) {
	c.mu.Lock()
	c.awaitOp = 0
	c.mu.Unlock()
	if c.obs == nil {
		return
	}
	if err != nil {
		payloadBytes = 0
	}
	c.obs(op, time.Since(start), payloadBytes, err)
}

// sendAllL1 fans a message out to every L1 server.
func (c *clientCore) sendAllL1(msg wire.Message) error {
	if c.node == nil {
		return ErrNoNode
	}
	var firstErr error
	for _, id := range c.params.L1IDs() {
		if err := c.node.Send(id, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// collect delivers responses to visit until it returns done=true or the
// context expires. Responses are whatever the servers send to this client;
// visit must filter by operation id.
func (c *clientCore) collect(ctx context.Context, visit func(env wire.Envelope) (done bool)) error {
	for {
		select {
		case env := <-c.inbox:
			if visit(env) {
				return nil
			}
		case <-ctx.Done():
			return fmt.Errorf("lds: %s operation: %w", c.id, ctx.Err())
		}
	}
}

// Writer is an LDS write client (paper, Fig. 1 left).
type Writer struct {
	core clientCore
	wid  int32
}

// NewWriter creates a writer with the given positive writer id; ids order
// concurrent writes with equal z components, so they must be unique.
func NewWriter(params Params, wid int32) (*Writer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if wid <= 0 {
		return nil, fmt.Errorf("lds: writer id %d, want positive", wid)
	}
	return &Writer{
		core: newClientCore(params, wire.ProcID{Role: wire.RoleWriter, Index: wid}),
		wid:  wid,
	}, nil
}

// ID returns the writer's process id.
func (w *Writer) ID() wire.ProcID { return w.core.ID() }

// Bind attaches the transport node.
func (w *Writer) Bind(node transport.Node) { w.core.Bind(node) }

// Handle is the transport handler.
func (w *Writer) Handle(env wire.Envelope) { w.core.Handle(env) }

// SetObserver installs a per-operation instrumentation hook; nil removes
// it. Not safe to call concurrently with Write.
func (w *Writer) SetObserver(obs OpObserver) { w.core.obs = obs }

// Write performs one write operation and returns the tag it was written
// under. The operation completes after f1+k L1 servers acknowledge; the
// offload to L2 continues asynchronously and never delays the writer.
func (w *Writer) Write(ctx context.Context, value []byte) (tag.Tag, error) {
	start := time.Now()
	t, err := w.write(ctx, value)
	w.core.observe(OpWrite, start, len(value), err)
	return t, err
}

func (w *Writer) write(ctx context.Context, value []byte) (tag.Tag, error) {
	// Phase 1: get-tag -- discover the maximum tag from f1+k servers.
	opGet := w.core.await(tag.Tag{})
	if err := w.core.sendAllL1(wire.QueryTag{OpID: opGet}); err != nil {
		return tag.Tag{}, err
	}
	var maxTag tag.Tag
	w.core.phase.reset(w.core.params.N1)
	err := w.core.collect(ctx, func(env wire.Envelope) bool {
		m, ok := env.Msg.(wire.QueryTagResp)
		if !ok || m.OpID != opGet || !w.core.phase.add(env.From.Index) {
			return false
		}
		maxTag = tag.Max(maxTag, m.Tag)
		return w.core.phase.count() >= w.core.params.WriteQuorum()
	})
	if err != nil {
		return tag.Tag{}, fmt.Errorf("get-tag: %w", err)
	}

	// Phase 2: put-data -- write (tw, v) and await f1+k acknowledgments.
	// The caller may reuse value once Write returns, but on channet the L1
	// servers keep the PutData slice itself (and encode it for L2 well after
	// the f1+k acks that end this operation), so they get one private copy.
	tw := maxTag.Next(w.wid)
	opPut := w.core.await(tw)
	if err := w.core.sendAllL1(wire.PutData{OpID: opPut, Tag: tw, Value: bytes.Clone(value)}); err != nil {
		return tag.Tag{}, err
	}
	w.core.phase.reset(w.core.params.N1)
	err = w.core.collect(ctx, func(env wire.Envelope) bool {
		// ACKs may arrive via the direct path (carrying OpID) or via the
		// broadcast-threshold path (OpID 0); the tag identifies the write.
		m, ok := env.Msg.(wire.PutDataResp)
		if !ok || m.Tag != tw || !w.core.phase.add(env.From.Index) {
			return false
		}
		return w.core.phase.count() >= w.core.params.WriteQuorum()
	})
	if err != nil {
		return tag.Tag{}, fmt.Errorf("put-data: %w", err)
	}
	return tw, nil
}

// Reader is an LDS read client (paper, Fig. 1 right). values, coded and
// csFree are the get-data phase's collection state, reused across
// operations (maps are cleared, codedSets recycled through the free
// list) so a read allocates only what escapes it: the decoded value.
type Reader struct {
	core   clientCore
	code   erasure.Regenerating
	values map[tag.Tag][]byte
	coded  map[tag.Tag]*codedSet
	csFree []*codedSet
}

// NewReader creates a reader with the given positive reader id.
func NewReader(params Params, rid int32, code erasure.Regenerating) (*Reader, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rid <= 0 {
		return nil, fmt.Errorf("lds: reader id %d, want positive", rid)
	}
	if code == nil {
		return nil, errors.New("lds: reader needs the code to decode coded elements")
	}
	return &Reader{
		core:   newClientCore(params, wire.ProcID{Role: wire.RoleReader, Index: rid}),
		code:   code,
		values: make(map[tag.Tag][]byte),
		coded:  make(map[tag.Tag]*codedSet),
	}, nil
}

// ID returns the reader's process id.
func (r *Reader) ID() wire.ProcID { return r.core.ID() }

// Bind attaches the transport node.
func (r *Reader) Bind(node transport.Node) { r.core.Bind(node) }

// Handle is the transport handler.
func (r *Reader) Handle(env wire.Envelope) { r.core.Handle(env) }

// SetObserver installs a per-operation instrumentation hook; nil removes
// it. Not safe to call concurrently with Read.
func (r *Reader) SetObserver(obs OpObserver) { r.core.obs = obs }

// codedSet accumulates coded elements for one tag during get-data.
type codedSet struct {
	shards   []erasure.Shard
	seen     respSet
	valueLen int
}

// takeCodedSet checks a reset codedSet out of the reader's free list.
func (r *Reader) takeCodedSet() *codedSet {
	var cs *codedSet
	if n := len(r.csFree); n > 0 {
		cs = r.csFree[n-1]
		r.csFree[n-1] = nil
		r.csFree = r.csFree[:n-1]
	} else {
		cs = &codedSet{}
	}
	cs.shards = cs.shards[:0]
	cs.seen.reset(r.core.params.N1)
	cs.valueLen = 0
	return cs
}

// resetGetData clears the get-data collection state, recycling codedSets.
// It runs as the read ends, so a pooled reader idle between operations pins
// none of the up to n1 coded elements and L1 values its last read collected.
func (r *Reader) resetGetData() {
	clear(r.values)
	for t, cs := range r.coded {
		for i := range cs.shards {
			cs.shards[i].Data = nil
		}
		r.csFree = append(r.csFree, cs)
		delete(r.coded, t)
	}
}

// Read performs one read operation, returning the value and its tag.
func (r *Reader) Read(ctx context.Context) ([]byte, tag.Tag, error) {
	start := time.Now()
	value, t, err := r.read(ctx)
	r.core.observe(OpRead, start, len(value), err)
	return value, t, err
}

func (r *Reader) read(ctx context.Context) ([]byte, tag.Tag, error) {
	quorum := r.core.params.WriteQuorum()

	// Phase 1: get-commited-tag -- treq is the max committed tag of f1+k
	// servers; the read must return a value at least this fresh.
	opQ := r.core.await(tag.Tag{})
	if err := r.core.sendAllL1(wire.QueryCommTag{OpID: opQ}); err != nil {
		return nil, tag.Tag{}, err
	}
	var treq tag.Tag
	r.core.phase.reset(r.core.params.N1)
	err := r.core.collect(ctx, func(env wire.Envelope) bool {
		m, ok := env.Msg.(wire.QueryCommTagResp)
		if !ok || m.OpID != opQ || !r.core.phase.add(env.From.Index) {
			return false
		}
		treq = tag.Max(treq, m.Tag)
		return r.core.phase.count() >= quorum
	})
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("get-commited-tag: %w", err)
	}

	// Phase 2: get-data -- await responses from f1+k distinct servers such
	// that a (tag, value) pair is available or k coded elements share a
	// tag. Servers may respond more than once (a (bot, bot) regeneration
	// failure can be followed by a value served off the commit path), so
	// collection is per-server with the best data retained.
	opG := r.core.await(tag.Tag{})
	if err := r.core.sendAllL1(wire.QueryData{OpID: opG, Req: treq}); err != nil {
		return nil, tag.Tag{}, err
	}
	defer r.resetGetData()
	r.core.phase.reset(r.core.params.N1) // distinct responders (any class)
	var (
		readTag    tag.Tag
		readValue  []byte
		haveResult bool
	)
	err = r.core.collect(ctx, func(env wire.Envelope) bool {
		m, ok := env.Msg.(wire.QueryDataResp)
		if !ok || m.OpID != opG {
			return false
		}
		r.core.phase.add(env.From.Index)
		switch m.Class {
		case wire.PayloadValue:
			if !m.Tag.Less(treq) {
				r.values[m.Tag] = m.Data
			}
		case wire.PayloadCoded:
			if !m.Tag.Less(treq) {
				cs := r.coded[m.Tag]
				if cs == nil {
					cs = r.takeCodedSet()
					r.coded[m.Tag] = cs
				}
				if cs.seen.add(env.From.Index) {
					cs.valueLen = int(m.ValueLen)
					cs.shards = append(cs.shards, erasure.Shard{
						Index: int(env.From.Index), // L1 code index is the server index
						Data:  m.Data,
					})
				}
			}
		case wire.PayloadNone:
			// A failed regeneration still counts toward the f1+k distinct
			// responders; the server will answer again when it can.
		}
		if r.core.phase.count() < quorum {
			return false
		}
		// Candidate with the highest tag wins; prefer a direct value over
		// decoding when tags tie.
		var (
			bestTag   tag.Tag
			bestValue []byte
			bestCoded *codedSet
			found     bool
		)
		for t, v := range r.values {
			if !found || bestTag.Less(t) {
				bestTag, bestValue, bestCoded, found = t, v, nil, true
			}
		}
		for t, cs := range r.coded {
			if len(cs.shards) < r.core.params.K {
				continue
			}
			if !found || bestTag.Less(t) {
				bestTag, bestValue, bestCoded, found = t, nil, cs, true
			}
		}
		if !found {
			return false
		}
		if bestCoded != nil {
			v, err := r.code.Decode(bestCoded.valueLen, bestCoded.shards)
			if err != nil {
				// A decode failure cannot happen with k distinct correct
				// shards; treat as not-yet-complete so liveness is preserved
				// by further responses.
				return false
			}
			bestValue = v
		} else {
			// The value escapes to the application, and on channet m.Data
			// is the server's own list-entry slice: hand out a copy.
			bestValue = bytes.Clone(bestValue)
		}
		readTag, readValue, haveResult = bestTag, bestValue, true
		return true
	})
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("get-data: %w", err)
	}
	if !haveResult {
		return nil, tag.Tag{}, errors.New("lds: get-data completed without a result")
	}

	// Phase 3: put-tag -- write back the tag (not the value: that is what
	// keeps the read cost at Theta(1) without concurrency) so that f1+k
	// servers commit at least tr before the read returns.
	opP := r.core.await(tag.Tag{})
	if err := r.core.sendAllL1(wire.PutTag{OpID: opP, Tag: readTag}); err != nil {
		return nil, tag.Tag{}, err
	}
	r.core.phase.reset(r.core.params.N1)
	err = r.core.collect(ctx, func(env wire.Envelope) bool {
		m, ok := env.Msg.(wire.PutTagResp)
		if !ok || m.OpID != opP || !r.core.phase.add(env.From.Index) {
			return false
		}
		return r.core.phase.count() >= quorum
	})
	if err != nil {
		return nil, tag.Tag{}, fmt.Errorf("put-tag: %w", err)
	}
	return readValue, readTag, nil
}
