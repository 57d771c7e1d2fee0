// Package wire defines the process identifiers, message taxonomy and binary
// encoding shared by every protocol in this repository (LDS and the ABD
// baseline).
//
// Centralizing the messages serves two purposes. First, both transports --
// the in-memory simulated network and the TCP transport -- move the same
// values, so the protocol code is transport-agnostic. Second, the paper's
// cost model (Section II-d) counts only data bytes (values, coded elements,
// helper data) and explicitly ignores metadata such as tags and counters;
// every message therefore reports PayloadBytes and MetaBytes separately so
// the cost accountant can apply exactly that rule.
package wire

import (
	"encoding/binary"
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

// Message is the interface all protocol messages implement.
type Message interface {
	// Kind returns the wire discriminator.
	Kind() Kind
	// AppendTo appends the binary encoding of the message body (without the
	// kind byte) to b and returns the extended slice.
	AppendTo(b []byte) []byte
	// PayloadBytes is the number of data bytes (object values, coded
	// elements, helper data) the message carries; the unit of the paper's
	// communication-cost model.
	PayloadBytes() int
}

// MetaBytes returns the number of non-payload bytes in the encoded message;
// ignored by the paper's cost model but tracked so the split is visible.
func MetaBytes(m Message) int {
	return len(m.AppendTo(nil)) - m.PayloadBytes() + 1 // +1 for the kind byte
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
	b = append(b, byte(m.Kind()))
	return m.AppendTo(b)
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
// byte-slice fields of the returned message alias b directly. b becomes
// the message's: the caller must never modify or reuse it, because a
// server may keep a decoded field for good. Decoders that convert to
// string or fixed-width scalars copy by construction, so only []byte
// fields alias.
func DecodeAlias(b []byte) (Message, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	kind := Kind(b[0])
	dec, ok := decoders[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	return dec(b[1:])
}

// EncodeEnvelope serializes a full envelope (for the TCP transport) into
// a fresh buffer.
func EncodeEnvelope(env Envelope) []byte {
	return AppendEnvelope(make([]byte, 0, 32), env)
}

// AppendEnvelope appends the envelope encoding to b and returns the
// extended slice; the append-style form of EncodeEnvelope.
func AppendEnvelope(b []byte, env Envelope) []byte {
	b = appendProcID(b, env.From)
	b = appendProcID(b, env.To)
	return AppendEncode(b, env.Msg)
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
	var env Envelope
	var err error
	env.From, b, err = readProcID(b)
	if err != nil {
		return env, err
	}
	env.To, b, err = readProcID(b)
	if err != nil {
		return env, err
	}
	env.Msg, err = DecodeAlias(b)
	return env, err
}

type decoder func(body []byte) (Message, error)

var decoders = map[Kind]decoder{}

// register installs a decoder for a kind; called from message definitions.
func register(k Kind, d decoder) {
	if _, dup := decoders[k]; dup {
		panic(fmt.Sprintf("wire: duplicate decoder for kind %d", k))
	}
	decoders[k] = d
}

// --- low-level encoding helpers -------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func appendInt32(b []byte, v int32) []byte {
	return binary.AppendVarint(b, int64(v))
}

func readInt32(b []byte) (int32, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return int32(v), b[n:], nil
}

func appendInt64(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func readInt64(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func appendBytes(b, data []byte) []byte {
	b = appendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// readBytes reads a length-prefixed byte field. The returned field
// ALIASES b (full-capacity-clipped, so appends cannot clobber the rest
// of the frame); ownership is decided one level up — Decode clones the
// whole frame once, DecodeAlias passes the caller's buffer through.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < n {
		return nil, nil, ErrTruncated
	}
	return b[:n:n], b[n:], nil
}

func appendProcID(b []byte, p ProcID) []byte {
	b = append(b, byte(p.Role))
	return appendInt32(b, p.Index)
}

func readProcID(b []byte) (ProcID, []byte, error) {
	if len(b) < 1 {
		return ProcID{}, nil, ErrTruncated
	}
	role := Role(b[0])
	idx, rest, err := readInt32(b[1:])
	if err != nil {
		return ProcID{}, nil, err
	}
	return ProcID{Role: role, Index: idx}, rest, nil
}
