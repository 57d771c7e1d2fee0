package lds

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

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

// phase is where a client operation stands.
type phase uint8

const (
	idle phase = iota
	getTag
	putData
	getCommTag
	getData
	putTag
	done
)

var phaseNames = [...]string{"idle", "get-tag", "put-data", "get-commited-tag", "get-data", "put-tag", "done"}

// opCore is what WriteOp and ReadOp share: the client's view of L1, the
// phase, and the per-client op-id sequence. Every phase mints a fresh op id,
// so responses to an earlier phase or operation of the same client never
// count toward the current one. quorum is the reused membership scratch of
// the phase in flight. L1 servers drop a reader's get-data or put-tag older
// than its registration as a late copy, so a machine taking over a client id
// must start its sequence above every op id its predecessors minted.
type opCore struct {
	params Params
	l1     []wire.ProcID // all L1 servers, built once
	seq    uint64
	opID   uint64
	phase  phase
	quorum respSet
}

// enter opens phase p: a fresh op id and an empty quorum.
func (c *opCore) enter(p phase) uint64 {
	c.phase = p
	c.seq++
	c.opID = c.seq
	c.quorum.reset(c.params.N1)
	return c.opID
}

// sendAll queues msg for every L1 server.
func (c *opCore) sendAll(msg wire.Message, out *wire.Outbox) {
	for _, id := range c.l1 {
		out.Send(id, msg)
	}
}

// reached reports whether the phase in flight has heard from f1+k
// distinct servers.
func (c *opCore) reached() bool { return c.quorum.count() >= c.params.WriteQuorum() }

// Phase names the phase the operation is in ("idle" before the first
// Start, "done" once it has completed).
func (c *opCore) Phase() string { return phaseNames[c.phase] }

// Done reports whether the operation started last has completed.
func (c *opCore) Done() bool { return c.phase == done }

// WriteOp is a writer's state machine (paper, Fig. 1 left): Start begins one
// write, Step consumes the L1 servers' answers, and once Done the write's
// tag is Tag. One WriteOp serves all of a writer's operations, one at a
// time (the paper's well-formedness), so its op ids never repeat.
type WriteOp struct {
	opCore
	wid   int32
	value []byte
	tw    tag.Tag // the max tag get-tag has seen, then the tag written
}

// NewWriteOp creates the machine of the writer with the given positive id;
// ids order concurrent writes with equal z components, so they must be
// unique. Its op ids follow seq.
func NewWriteOp(params Params, wid int32, seq uint64) (*WriteOp, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if wid <= 0 {
		return nil, fmt.Errorf("lds: writer id %d, want positive", wid)
	}
	return &WriteOp{opCore: opCore{params: params, l1: params.L1IDs(), seq: seq}, wid: wid}, nil
}

// Start begins a write of value, which L1 servers keep by reference: the
// caller must not modify it afterwards. It abandons any operation still in
// flight.
func (o *WriteOp) Start(value []byte, out *wire.Outbox) {
	// Phase 1: get-tag -- discover the maximum tag from f1+k servers.
	o.value, o.tw = value, tag.Tag{}
	o.sendAll(wire.QueryTag{OpID: o.enter(getTag)}, out)
}

// Tag returns the tag the completed write was written under.
func (o *WriteOp) Tag() tag.Tag { return o.tw }

// Step consumes one message from process from and queues the messages the
// action sends in out.
func (o *WriteOp) Step(from wire.ProcID, msg wire.Message, out *wire.Outbox) {
	switch m := msg.(type) {
	case wire.QueryTagResp:
		if o.phase != getTag || m.OpID != o.opID || !o.quorum.add(from.Index) {
			return
		}
		o.tw = tag.Max(o.tw, m.Tag)
		if !o.reached() {
			return
		}
		// Phase 2: put-data -- write (tw, v) and await f1+k acknowledgments.
		o.tw = o.tw.Next(o.wid)
		o.sendAll(wire.PutData{OpID: o.enter(putData), Tag: o.tw, Value: o.value}, out)
		o.value = nil
	case wire.PutDataResp:
		// ACKs may arrive via the direct path (carrying OpID) or via the
		// broadcast-threshold path (OpID 0); the tag identifies the write.
		if o.phase == putData && m.Tag == o.tw && o.quorum.add(from.Index) && o.reached() {
			o.phase = done
		}
	}
}

// ReadOp is a reader's state machine (paper, Fig. 1 right): Start begins one
// read, Step consumes the L1 servers' answers, and once Done, Result returns
// the value. Decoding the value from coded elements is left to Result, so
// that whoever drives the steps does not pay for it. One ReadOp serves all
// of a reader's operations, one at a time, and reuses its slices, so a read
// allocates only what escapes it: the decoded value.
type ReadOp struct {
	opCore
	code    erasure.Regenerating
	treq    tag.Tag
	answers []answer // the get-data phase's answers worth keeping

	// The get-data outcome, kept through put-tag for Result: the tag and
	// either a value an L1 server served (not ours to hand out) or the
	// coded elements to decode.
	readTag   tag.Tag
	readValue []byte
	shards    []erasure.Shard
	valueLen  int
}

// answer is a value an L1 server served, or server from's coded element,
// for a tag of at least treq.
type answer struct {
	tag      tag.Tag
	from     int32
	coded    bool
	data     []byte
	valueLen int
}

// NewReadOp creates the machine of the reader with the given positive id.
// Its op ids follow seq.
func NewReadOp(params Params, rid int32, code erasure.Regenerating, seq uint64) (*ReadOp, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rid <= 0 {
		return nil, fmt.Errorf("lds: reader id %d, want positive", rid)
	}
	if code == nil {
		return nil, errors.New("lds: reader needs the code to decode coded elements")
	}
	return &ReadOp{opCore: opCore{params: params, l1: params.L1IDs(), seq: seq}, code: code}, nil
}

// Start begins a read. It abandons any operation still in flight.
func (o *ReadOp) Start(out *wire.Outbox) {
	o.release()
	o.treq = tag.Tag{}
	// Phase 1: get-commited-tag -- treq is the max committed tag of f1+k
	// servers; the read must return a value at least this fresh.
	o.sendAll(wire.QueryCommTag{OpID: o.enter(getCommTag)}, out)
}

// Step consumes one message from process from and queues the messages the
// action sends in out.
func (o *ReadOp) Step(from wire.ProcID, msg wire.Message, out *wire.Outbox) {
	switch m := msg.(type) {
	case wire.QueryCommTagResp:
		if o.phase != getCommTag || m.OpID != o.opID || !o.quorum.add(from.Index) {
			return
		}
		o.treq = tag.Max(o.treq, m.Tag)
		if o.reached() {
			// Phase 2: get-data -- await responses from f1+k distinct
			// servers such that a (tag, value) pair is available or k coded
			// elements share a tag.
			o.sendAll(wire.QueryData{OpID: o.enter(getData), Req: o.treq}, out)
		}
	case wire.QueryDataResp:
		if o.phase == getData && m.OpID == o.opID {
			o.onData(from, m, out)
		}
	case wire.PutTagResp:
		if o.phase == putTag && m.OpID == o.opID && o.quorum.add(from.Index) && o.reached() {
			o.phase = done
		}
	}
}

// onData collects one get-data answer. Servers may respond more than once
// (a (bot, bot) regeneration failure can be followed by a value served off
// the commit path), so every answer is kept, a server's coded element once
// per tag, and a failed regeneration (PayloadNone) still counts toward the
// f1+k distinct responders: the server will answer again when it can.
func (o *ReadOp) onData(from wire.ProcID, m wire.QueryDataResp, out *wire.Outbox) {
	o.quorum.add(from.Index)
	coded := m.Class == wire.PayloadCoded
	if (coded || m.Class == wire.PayloadValue) && !m.Tag.Less(o.treq) {
		if _, dup := o.count(m.Tag, coded, from.Index); !dup {
			o.answers = append(o.answers, answer{m.Tag, from.Index, coded, m.Data, int(m.ValueLen)})
		}
	}
	if !o.reached() {
		return
	}
	// Candidate with the highest tag wins; prefer a direct value over
	// decoding when tags tie.
	best := -1
	for i, a := range o.answers {
		if n, _ := o.count(a.tag, true, -1); a.coded && n < o.params.K {
			continue
		}
		if best < 0 || o.answers[best].tag.Less(a.tag) || a.tag == o.answers[best].tag && !a.coded {
			best = i
		}
	}
	if best < 0 {
		return
	}
	b := o.answers[best]
	o.readTag, o.readValue, o.valueLen = b.tag, b.data, b.valueLen
	if b.coded {
		o.readValue = nil
		for _, a := range o.answers {
			if a.coded && a.tag == b.tag {
				o.shards = append(o.shards, erasure.Shard{Index: int(a.from), Data: a.data}) // L1 code index is the server index
			}
		}
	}
	// Unpin what was not chosen: a reader idle between operations holds
	// none of the up to n1 coded elements and values it collected.
	clear(o.answers)
	o.answers = o.answers[:0]
	// Phase 3: put-tag -- write back the tag (not the value: that is what
	// keeps the read cost at Theta(1) without concurrency) so that f1+k
	// servers commit at least tr before the read returns.
	o.sendAll(wire.PutTag{OpID: o.enter(putTag), Tag: o.readTag}, out)
}

// count returns how many kept answers are for tag t and of t's class
// (coded or value), and whether server from gave one of them.
func (o *ReadOp) count(t tag.Tag, coded bool, from int32) (n int, dup bool) {
	for _, a := range o.answers {
		if a.tag == t && a.coded == coded {
			n++
			dup = dup || a.from == from
		}
	}
	return n, dup
}

// Result returns the value and tag of the completed read. It decodes when
// the read chose coded elements, so it runs on the caller, and it must be
// called once per operation, after Done and before the next Start; it leaves
// the machine holding none of the read's data.
func (o *ReadOp) Result() ([]byte, tag.Tag, error) {
	defer o.release()
	if len(o.shards) == 0 {
		// The value escapes to the application, and on the simulated
		// network it is the server's own list-entry slice: hand out a copy.
		return bytes.Clone(o.readValue), o.readTag, nil
	}
	v, err := o.code.Decode(o.valueLen, o.shards)
	if err != nil {
		// k distinct shards of one tag always decode; failing here means a
		// server sent a malformed element.
		return nil, tag.Tag{}, fmt.Errorf("lds: decode %v: %w", o.readTag, err)
	}
	return v, o.readTag, nil
}

// release drops every received value and element the machine still holds.
func (o *ReadOp) release() {
	clear(o.answers)
	clear(o.shards)
	o.answers, o.shards, o.readValue = o.answers[:0], o.shards[:0], nil
}
