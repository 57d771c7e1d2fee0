// Package wire defines the process identifiers, message taxonomy and binary
// encoding shared by every protocol in this repository (LDS and the ABD
// baseline).
//
// Centralizing the messages serves two purposes. First, both transports --
// the in-memory simulated network and the TCP transport -- move the same
// values, so the protocol code is transport-agnostic. Second, the paper's
// cost model (Section II-d) counts only data bytes (values, coded elements,
// helper data) and explicitly ignores metadata such as tags and counters.
// Every []byte field of a message is data and every other field metadata,
// so Sizes splits an encoding that way for the cost accountant.
//
// Each message lists its fields once, in wire order, in an unexported
// fields method, and one codec (codec.go) walks that list both ways:
// encoding appends the fields, decoding reads them back and keeps the
// first error. The codec holds the rules every message shares: varints
// and length prefixes, int32 fields that refuse out-of-range varints, a
// guard on every list count, and the trailing fields older builds omit,
// which decode as zero. DecodeAlias walks the caller's frame, so decoded
// byte slices alias it, a Broadcast's inner message's included; Decode
// walks a private copy of it.
package wire

import (
	"errors"
	"fmt"
)

// Role identifies the kind of a process in the two-layer system.
type Role uint8

// Process roles. Clients (writers and readers) interact only with L1;
// L1 servers additionally interact with L2 servers (paper, Section II).
// RoleControl is outside the paper's protocol: it names the provisioning
// endpoints of real deployments (the gateway's shard-group manager and
// each node process's group host), which exchange the GroupServe /
// GroupRetire / NodePing handshake over the same transport.
const (
	RoleWriter Role = iota + 1
	RoleReader
	RoleL1
	RoleL2
	RoleControl
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RoleWriter:
		return "w"
	case RoleReader:
		return "r"
	case RoleL1:
		return "L1"
	case RoleL2:
		return "L2"
	case RoleControl:
		return "ctl"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// ProcID names a process: a role plus an index unique within the role.
// Server indices follow the paper's convention: L1 servers are 0..n1-1 and
// L2 servers are 0..n2-1 within their own role (the paper's s_{n1+i} is
// {RoleL2, i}).
type ProcID struct {
	Role  Role
	Index int32
}

// String renders the id, e.g. "L1/3" or "w/1".
func (p ProcID) String() string { return fmt.Sprintf("%s/%d", p.Role, p.Index) }

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds for the LDS protocol (Figs. 1-3 of the paper) and the ABD
// baseline.
const (
	// Client <-> L1 (Fig. 1 / Fig. 2).
	KindQueryTag Kind = iota + 1
	KindQueryTagResp
	KindPutData
	KindPutDataResp
	KindQueryCommTag
	KindQueryCommTagResp
	KindQueryData
	KindQueryDataResp
	KindPutTag
	KindPutTagResp

	// L1 <-> L1 broadcast (the COMMIT-TAG relay primitive).
	KindBroadcast
	KindCommitTag

	// L1 <-> L2 internal operations (Fig. 3).
	KindWriteCodeElem
	KindAckCodeElem
	KindQueryCodeElem
	KindSendHelperElem

	// ABD baseline.
	KindABDQuery
	KindABDQueryResp
	KindABDUpdate
	KindABDUpdateAck

	// Batched L1 -> L2 offload (appended after the baseline kinds so the
	// wire discriminators of every earlier message stay stable).
	KindWriteCodeElemBatch
	KindAckCodeElemBatch

	// Deployment control plane (gateway <-> node host provisioning; see
	// control.go). Appended last, as above.
	KindGroupServe
	KindGroupServeResp
	KindGroupRetire
	KindGroupRetireResp
	KindNodePing
	KindNodePong

	// Per-group storage-gauge sampling (gateway <-> node host; see
	// control.go). Appended last, as above.
	KindGroupStats
	KindGroupStatsResp

	// Scrub/repair control plane (gateway <-> node host; see repair.go).
	// Appended last, as above.
	KindElemInventory
	KindElemInventoryResp
	KindElemFetch
	KindElemFetchResp
	KindElemRepair
	KindElemRepairResp
)

// Message is the interface all protocol messages implement. Every message
// type of this package also has a fields method listing its fields, once,
// in wire order; the codec (codec.go) walks it to encode, to decode and
// to size.
type Message interface {
	// Kind returns the wire discriminator.
	Kind() Kind
}

// Sizes splits the encoding of m (Encode's, kind byte included) into the
// data bytes it carries, payload (object values, coded elements, helper
// data: the contents of its []byte fields, a Broadcast's inner message's
// included), the unit of the paper's communication-cost model, and the
// rest, meta, which the model ignores. It encodes nothing and allocates
// nothing.
func Sizes(m Message) (meta, payload int) {
	c := codec{size: true}
	c.message(&m)
	return c.meta, c.payload
}

// Envelope is a routed message.
type Envelope struct {
	From ProcID
	To   ProcID
	Msg  Message
}

// Outbox collects, in order, the messages one protocol step sends. The
// step itself performs no I/O; whatever drove it sends the envelopes (their
// From is the stepping process) once the step has returned.
type Outbox struct {
	Msgs []Envelope
}

// Send queues msg for delivery to to.
func (o *Outbox) Send(to ProcID, msg Message) {
	o.Msgs = append(o.Msgs, Envelope{To: to, Msg: msg})
}

// Reset empties the outbox for reuse, dropping its references to the
// messages it held.
func (o *Outbox) Reset() {
	clear(o.Msgs)
	o.Msgs = o.Msgs[:0]
}

// ErrTruncated is returned when a message body is shorter than its encoding
// requires.
var ErrTruncated = errors.New("wire: truncated message")

// Encode serializes kind byte + body into a fresh buffer.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, 1+16), m)
}

// AppendEncode appends kind byte + body to b and returns the extended
// slice; the append-style form of Encode for callers that reuse buffers.
func AppendEncode(b []byte, m Message) []byte {
	c := codec{b: b}
	c.message(&m)
	return c.b
}

// Decode parses a message produced by Encode. The returned message owns
// its memory: b may be modified or reused immediately after Decode
// returns. (Internally the input is cloned once; consumers on hot paths
// that can honor the aliasing rules should use DecodeAlias instead.)
func Decode(b []byte) (Message, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	return DecodeAlias(append(make([]byte, 0, len(b)), b...))
}

// DecodeAlias parses a message produced by Encode without copying:
// byte-slice fields of the returned message alias b directly, the inner
// message of a Broadcast's too. b becomes the message's: the caller must
// never modify or reuse it, because a server may keep a decoded field for
// good. Strings and scalars are copies, so only []byte fields alias.
func DecodeAlias(b []byte) (Message, error) {
	c := codec{b: b, dec: true}
	var m Message
	if c.message(&m); c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// EncodeEnvelope serializes a full envelope (for the TCP transport) into
// a fresh buffer.
func EncodeEnvelope(env Envelope) []byte {
	return AppendEnvelope(make([]byte, 0, 32), env)
}

// AppendEnvelope appends the envelope encoding to b and returns the
// extended slice; the append-style form of EncodeEnvelope.
func AppendEnvelope(b []byte, env Envelope) []byte {
	c := codec{b: b}
	c.envelope(&env)
	return c.b
}

// DecodeEnvelope parses an envelope produced by EncodeEnvelope. Like
// Decode, the result owns its memory.
func DecodeEnvelope(b []byte) (Envelope, error) {
	return DecodeEnvelopeAlias(append(make([]byte, 0, len(b)), b...))
}

// DecodeEnvelopeAlias is the zero-copy form of DecodeEnvelope: byte-slice
// fields of the decoded message alias b, and b becomes the message's (see
// DecodeAlias). The TCP read loop uses it on a fresh body buffer per
// frame.
func DecodeEnvelopeAlias(b []byte) (Envelope, error) {
	c := codec{b: b, dec: true}
	var env Envelope
	c.envelope(&env)
	return env, c.err
}

func (c *codec) envelope(env *Envelope) {
	c.proc(&env.From)
	c.proc(&env.To)
	c.message(&env.Msg)
}
