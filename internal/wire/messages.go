package wire

import "github.com/lds-storage/lds/internal/tag"

// This file defines the LDS protocol messages, one struct per arrow in
// Figs. 1-3 of the paper. Client-originated messages carry an OpID (a
// per-client operation sequence number) so responses of one operation can
// never be mistaken for another's under non-FIFO links; OpID is metadata in
// the cost model, exactly like tags.
//
// Decoding without a copy (DecodeAlias, DecodeEnvelopeAlias) hands the
// input buffer b to the decoded message: its []byte fields alias b, and
// servers keep some of them for good (an L1 list value, an L2 element).
// So b becomes the message's, and the caller must never modify or reuse
// it — the decode-side twin of transport.Node.Send's rule that a sent
// message must not change.

// PayloadClass describes what a QueryDataResp carries back to a reader.
type PayloadClass uint8

// Response classes for the get-data phase: a (tag, value) pair served from
// the L1 list, a (tag, coded-element) pair regenerated from L2, or the
// (bot, bot) marker of a failed regeneration.
const (
	PayloadNone PayloadClass = iota
	PayloadValue
	PayloadCoded
)

// QueryTag is the writer's get-tag request (QUERY-TAG).
type QueryTag struct {
	OpID uint64
}

// Kind implements Message.
func (QueryTag) Kind() Kind { return KindQueryTag }

func (m *QueryTag) fields(c *codec) { c.uint64(&m.OpID) }

// QueryTagResp answers get-tag with the maximum tag in the server's list.
type QueryTagResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (QueryTagResp) Kind() Kind { return KindQueryTagResp }

func (m *QueryTagResp) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
}

// PutData is the writer's put-data request (PUT-DATA, (tw, v)).
type PutData struct {
	OpID  uint64
	Tag   tag.Tag
	Value []byte
}

// Kind implements Message.
func (PutData) Kind() Kind { return KindPutData }

func (m *PutData) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
	c.bytes(&m.Value)
}

// PutDataResp is the server ACK completing a writer's participation.
type PutDataResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (PutDataResp) Kind() Kind { return KindPutDataResp }

func (m *PutDataResp) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
}

// CommitTag is the COMMIT-TAG broadcast body (metadata only, as the paper
// stresses: the broadcast carries no value).
type CommitTag struct {
	Tag tag.Tag
}

// Kind implements Message.
func (CommitTag) Kind() Kind { return KindCommitTag }

func (m *CommitTag) fields(c *codec) { c.tag(&m.Tag) }

// Broadcast wraps an inner message for the f1+1-relay broadcast primitive.
// Origin, Incarnation and Seq identify the broadcast instance for
// exactly-once consumption: each incarnation of an origin numbers its
// broadcasts from 1, and a later incarnation has a larger Incarnation. An
// older sender encodes none; it decodes as 0.
type Broadcast struct {
	Origin      ProcID
	Seq         uint64
	Inner       Message
	Incarnation uint64
}

// Kind implements Message.
func (Broadcast) Kind() Kind { return KindBroadcast }

func (m *Broadcast) fields(c *codec) {
	c.proc(&m.Origin)
	c.uint64(&m.Seq)
	c.message(&m.Inner)
	if c.more() { // an older sender ends here
		c.uint64(&m.Incarnation)
	}
}

// QueryCommTag is the reader's get-committed-tag request (QUERY-COMM-TAG).
type QueryCommTag struct {
	OpID uint64
}

// Kind implements Message.
func (QueryCommTag) Kind() Kind { return KindQueryCommTag }

func (m *QueryCommTag) fields(c *codec) { c.uint64(&m.OpID) }

// QueryCommTagResp returns the server's committed tag tc.
type QueryCommTagResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (QueryCommTagResp) Kind() Kind { return KindQueryCommTagResp }

func (m *QueryCommTagResp) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
}

// QueryData is the reader's get-data request carrying the requested tag.
type QueryData struct {
	OpID uint64
	Req  tag.Tag
}

// Kind implements Message.
func (QueryData) Kind() Kind { return KindQueryData }

func (m *QueryData) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Req)
}

// QueryDataResp is a server's answer in the get-data phase: a (tag, value)
// pair, a (tag, coded-element) pair, or (bot, bot) after a failed
// regeneration. ValueLen carries the original value length so coded
// elements can be decoded (shard sizes are padded to whole stripes).
type QueryDataResp struct {
	OpID     uint64
	Class    PayloadClass
	Tag      tag.Tag
	Data     []byte
	ValueLen int32
}

// Kind implements Message.
func (QueryDataResp) Kind() Kind { return KindQueryDataResp }

func (m *QueryDataResp) fields(c *codec) {
	c.uint64(&m.OpID)
	c.byte((*byte)(&m.Class))
	c.tag(&m.Tag)
	c.int32(&m.ValueLen)
	c.bytes(&m.Data)
}

// PutTag is the reader's put-tag (write-back) request; the value is
// deliberately not written back (paper, Section III-C).
type PutTag struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (PutTag) Kind() Kind { return KindPutTag }

func (m *PutTag) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
}

// PutTagResp acknowledges a put-tag.
type PutTagResp struct {
	OpID uint64
}

// Kind implements Message.
func (PutTagResp) Kind() Kind { return KindPutTagResp }

func (m *PutTagResp) fields(c *codec) { c.uint64(&m.OpID) }

// WriteCodeElem carries one coded element c_{n1+i} of the internal
// write-to-L2 operation (WRITE-CODE-ELEM).
type WriteCodeElem struct {
	Tag      tag.Tag
	Coded    []byte
	ValueLen int32
}

// Kind implements Message.
func (WriteCodeElem) Kind() Kind { return KindWriteCodeElem }

func (m *WriteCodeElem) fields(c *codec) {
	c.tag(&m.Tag)
	c.int32(&m.ValueLen)
	c.bytes(&m.Coded)
}

// AckCodeElem acknowledges a WriteCodeElem (ACK-CODE-ELEM).
type AckCodeElem struct {
	Tag tag.Tag
}

// Kind implements Message.
func (AckCodeElem) Kind() Kind { return KindAckCodeElem }

func (m *AckCodeElem) fields(c *codec) { c.tag(&m.Tag) }

// CodeElem is one (tag, coded-element) pair of a batched offload. ValueLen
// carries the original value length, exactly as in WriteCodeElem.
type CodeElem struct {
	Tag      tag.Tag
	Coded    []byte
	ValueLen int32
}

// WriteCodeElemBatch carries several coded elements from one L1 server to
// one L2 server in a single message, amortizing the per-message cost of the
// internal write-to-L2 operation when commits arrive faster than offload
// round trips complete. Elements are ordered by ascending tag; the L2
// replace-if-newer rule makes applying them in order equivalent to applying
// each in its own WriteCodeElem.
type WriteCodeElemBatch struct {
	Elems []CodeElem
}

// Kind implements Message.
func (WriteCodeElemBatch) Kind() Kind { return KindWriteCodeElemBatch }

func (m *WriteCodeElemBatch) fields(c *codec) {
	list(c, &m.Elems)
	for i := range m.Elems {
		e := &m.Elems[i]
		c.tag(&e.Tag)
		c.int32(&e.ValueLen)
		c.bytes(&e.Coded)
	}
}

// AckCodeElemBatch acknowledges a WriteCodeElemBatch: one tag per element
// the L2 server consumed, so the L1 sender can credit each tag's quorum
// with a single return message.
type AckCodeElemBatch struct {
	Tags []tag.Tag
}

// Kind implements Message.
func (AckCodeElemBatch) Kind() Kind { return KindAckCodeElemBatch }

func (m *AckCodeElemBatch) fields(c *codec) {
	list(c, &m.Tags)
	for i := range m.Tags {
		c.tag(&m.Tags[i])
	}
}

// QueryCodeElem asks an L2 server for helper data toward regenerating the
// sender's coded element, on behalf of the given reader's operation
// (QUERY-CODE-ELEM). The failed index is implied by the sender.
type QueryCodeElem struct {
	Reader ProcID
	OpID   uint64
}

// Kind implements Message.
func (QueryCodeElem) Kind() Kind { return KindQueryCodeElem }

func (m *QueryCodeElem) fields(c *codec) {
	c.proc(&m.Reader)
	c.uint64(&m.OpID)
}

// SendHelperElem returns the helper data h_{n1+i,j} for a regeneration
// (SEND-HELPER-ELEM), tagged with the L2 server's stored tag.
type SendHelperElem struct {
	Reader   ProcID
	OpID     uint64
	Tag      tag.Tag
	Helper   []byte
	ValueLen int32
}

// Kind implements Message.
func (SendHelperElem) Kind() Kind { return KindSendHelperElem }

func (m *SendHelperElem) fields(c *codec) {
	c.proc(&m.Reader)
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
	c.int32(&m.ValueLen)
	c.bytes(&m.Helper)
}
