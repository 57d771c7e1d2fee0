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

func appendTag(b []byte, t tag.Tag) []byte {
	b = appendUvarint(b, t.Z)
	return appendInt32(b, t.W)
}

func readTag(b []byte) (tag.Tag, []byte, error) {
	z, b, err := readUvarint(b)
	if err != nil {
		return tag.Tag{}, nil, err
	}
	w, b, err := readInt32(b)
	if err != nil {
		return tag.Tag{}, nil, err
	}
	return tag.Tag{Z: z, W: w}, b, nil
}

// QueryTag is the writer's get-tag request (QUERY-TAG).
type QueryTag struct {
	OpID uint64
}

// Kind implements Message.
func (QueryTag) Kind() Kind { return KindQueryTag }

// AppendTo implements Message.
func (m QueryTag) AppendTo(b []byte) []byte { return appendUvarint(b, m.OpID) }

// PayloadBytes implements Message.
func (QueryTag) PayloadBytes() int { return 0 }

// QueryTagResp answers get-tag with the maximum tag in the server's list.
type QueryTagResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (QueryTagResp) Kind() Kind { return KindQueryTagResp }

// AppendTo implements Message.
func (m QueryTagResp) AppendTo(b []byte) []byte {
	return appendTag(appendUvarint(b, m.OpID), m.Tag)
}

// PayloadBytes implements Message.
func (QueryTagResp) PayloadBytes() int { return 0 }

// PutData is the writer's put-data request (PUT-DATA, (tw, v)).
type PutData struct {
	OpID  uint64
	Tag   tag.Tag
	Value []byte
}

// Kind implements Message.
func (PutData) Kind() Kind { return KindPutData }

// AppendTo implements Message.
func (m PutData) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.OpID)
	b = appendTag(b, m.Tag)
	return appendBytes(b, m.Value)
}

// PayloadBytes implements Message.
func (m PutData) PayloadBytes() int { return len(m.Value) }

// PutDataResp is the server ACK completing a writer's participation.
type PutDataResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (PutDataResp) Kind() Kind { return KindPutDataResp }

// AppendTo implements Message.
func (m PutDataResp) AppendTo(b []byte) []byte {
	return appendTag(appendUvarint(b, m.OpID), m.Tag)
}

// PayloadBytes implements Message.
func (PutDataResp) PayloadBytes() int { return 0 }

// CommitTag is the COMMIT-TAG broadcast body (metadata only, as the paper
// stresses: the broadcast carries no value).
type CommitTag struct {
	Tag tag.Tag
}

// Kind implements Message.
func (CommitTag) Kind() Kind { return KindCommitTag }

// AppendTo implements Message.
func (m CommitTag) AppendTo(b []byte) []byte { return appendTag(b, m.Tag) }

// PayloadBytes implements Message.
func (CommitTag) PayloadBytes() int { return 0 }

// Broadcast wraps an inner message for the f1+1-relay broadcast primitive.
// Origin and Seq identify the broadcast instance for exactly-once
// consumption.
type Broadcast struct {
	Origin ProcID
	Seq    uint64
	Inner  Message
}

// Kind implements Message.
func (Broadcast) Kind() Kind { return KindBroadcast }

// AppendTo implements Message.
func (m Broadcast) AppendTo(b []byte) []byte {
	b = appendProcID(b, m.Origin)
	b = appendUvarint(b, m.Seq)
	b = append(b, byte(m.Inner.Kind()))
	return m.Inner.AppendTo(b)
}

// PayloadBytes implements Message.
func (m Broadcast) PayloadBytes() int { return m.Inner.PayloadBytes() }

// QueryCommTag is the reader's get-committed-tag request (QUERY-COMM-TAG).
type QueryCommTag struct {
	OpID uint64
}

// Kind implements Message.
func (QueryCommTag) Kind() Kind { return KindQueryCommTag }

// AppendTo implements Message.
func (m QueryCommTag) AppendTo(b []byte) []byte { return appendUvarint(b, m.OpID) }

// PayloadBytes implements Message.
func (QueryCommTag) PayloadBytes() int { return 0 }

// QueryCommTagResp returns the server's committed tag tc.
type QueryCommTagResp struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (QueryCommTagResp) Kind() Kind { return KindQueryCommTagResp }

// AppendTo implements Message.
func (m QueryCommTagResp) AppendTo(b []byte) []byte {
	return appendTag(appendUvarint(b, m.OpID), m.Tag)
}

// PayloadBytes implements Message.
func (QueryCommTagResp) PayloadBytes() int { return 0 }

// QueryData is the reader's get-data request carrying the requested tag.
type QueryData struct {
	OpID uint64
	Req  tag.Tag
}

// Kind implements Message.
func (QueryData) Kind() Kind { return KindQueryData }

// AppendTo implements Message.
func (m QueryData) AppendTo(b []byte) []byte {
	return appendTag(appendUvarint(b, m.OpID), m.Req)
}

// PayloadBytes implements Message.
func (QueryData) PayloadBytes() int { return 0 }

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

// AppendTo implements Message.
func (m QueryDataResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.OpID)
	b = append(b, byte(m.Class))
	b = appendTag(b, m.Tag)
	b = appendInt32(b, m.ValueLen)
	return appendBytes(b, m.Data)
}

// PayloadBytes implements Message.
func (m QueryDataResp) PayloadBytes() int { return len(m.Data) }

// PutTag is the reader's put-tag (write-back) request; the value is
// deliberately not written back (paper, Section III-C).
type PutTag struct {
	OpID uint64
	Tag  tag.Tag
}

// Kind implements Message.
func (PutTag) Kind() Kind { return KindPutTag }

// AppendTo implements Message.
func (m PutTag) AppendTo(b []byte) []byte {
	return appendTag(appendUvarint(b, m.OpID), m.Tag)
}

// PayloadBytes implements Message.
func (PutTag) PayloadBytes() int { return 0 }

// PutTagResp acknowledges a put-tag.
type PutTagResp struct {
	OpID uint64
}

// Kind implements Message.
func (PutTagResp) Kind() Kind { return KindPutTagResp }

// AppendTo implements Message.
func (m PutTagResp) AppendTo(b []byte) []byte { return appendUvarint(b, m.OpID) }

// PayloadBytes implements Message.
func (PutTagResp) PayloadBytes() int { return 0 }

// WriteCodeElem carries one coded element c_{n1+i} of the internal
// write-to-L2 operation (WRITE-CODE-ELEM).
type WriteCodeElem struct {
	Tag      tag.Tag
	Coded    []byte
	ValueLen int32
}

// Kind implements Message.
func (WriteCodeElem) Kind() Kind { return KindWriteCodeElem }

// AppendTo implements Message.
func (m WriteCodeElem) AppendTo(b []byte) []byte {
	b = appendTag(b, m.Tag)
	b = appendInt32(b, m.ValueLen)
	return appendBytes(b, m.Coded)
}

// PayloadBytes implements Message.
func (m WriteCodeElem) PayloadBytes() int { return len(m.Coded) }

// AckCodeElem acknowledges a WriteCodeElem (ACK-CODE-ELEM).
type AckCodeElem struct {
	Tag tag.Tag
}

// Kind implements Message.
func (AckCodeElem) Kind() Kind { return KindAckCodeElem }

// AppendTo implements Message.
func (m AckCodeElem) AppendTo(b []byte) []byte { return appendTag(b, m.Tag) }

// PayloadBytes implements Message.
func (AckCodeElem) PayloadBytes() int { return 0 }

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

// AppendTo implements Message.
func (m WriteCodeElemBatch) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(len(m.Elems)))
	for _, el := range m.Elems {
		b = appendTag(b, el.Tag)
		b = appendInt32(b, el.ValueLen)
		b = appendBytes(b, el.Coded)
	}
	return b
}

// PayloadBytes implements Message.
func (m WriteCodeElemBatch) PayloadBytes() int {
	var n int
	for _, el := range m.Elems {
		n += len(el.Coded)
	}
	return n
}

// AckCodeElemBatch acknowledges a WriteCodeElemBatch: one tag per element
// the L2 server consumed, so the L1 sender can credit each tag's quorum
// with a single return message.
type AckCodeElemBatch struct {
	Tags []tag.Tag
}

// Kind implements Message.
func (AckCodeElemBatch) Kind() Kind { return KindAckCodeElemBatch }

// AppendTo implements Message.
func (m AckCodeElemBatch) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(len(m.Tags)))
	for _, t := range m.Tags {
		b = appendTag(b, t)
	}
	return b
}

// PayloadBytes implements Message.
func (AckCodeElemBatch) PayloadBytes() int { return 0 }

// QueryCodeElem asks an L2 server for helper data toward regenerating the
// sender's coded element, on behalf of the given reader's operation
// (QUERY-CODE-ELEM). The failed index is implied by the sender.
type QueryCodeElem struct {
	Reader ProcID
	OpID   uint64
}

// Kind implements Message.
func (QueryCodeElem) Kind() Kind { return KindQueryCodeElem }

// AppendTo implements Message.
func (m QueryCodeElem) AppendTo(b []byte) []byte {
	return appendUvarint(appendProcID(b, m.Reader), m.OpID)
}

// PayloadBytes implements Message.
func (QueryCodeElem) PayloadBytes() int { return 0 }

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

// AppendTo implements Message.
func (m SendHelperElem) AppendTo(b []byte) []byte {
	b = appendProcID(b, m.Reader)
	b = appendUvarint(b, m.OpID)
	b = appendTag(b, m.Tag)
	b = appendInt32(b, m.ValueLen)
	return appendBytes(b, m.Helper)
}

// PayloadBytes implements Message.
func (m SendHelperElem) PayloadBytes() int { return len(m.Helper) }

// --- decoders ---------------------------------------------------------------

func init() { registerLDSDecoders() }

func registerLDSDecoders() {
	register(KindQueryTag, func(b []byte) (Message, error) {
		op, _, err := readUvarint(b)
		return QueryTag{OpID: op}, err
	})
	register(KindQueryTagResp, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, _, err := readTag(b)
		return QueryTagResp{OpID: op, Tag: t}, err
	})
	register(KindPutData, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, b, err := readTag(b)
		if err != nil {
			return nil, err
		}
		v, _, err := readBytes(b)
		return PutData{OpID: op, Tag: t, Value: v}, err
	})
	register(KindPutDataResp, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, _, err := readTag(b)
		return PutDataResp{OpID: op, Tag: t}, err
	})
	register(KindCommitTag, func(b []byte) (Message, error) {
		t, _, err := readTag(b)
		return CommitTag{Tag: t}, err
	})
	register(KindBroadcast, func(b []byte) (Message, error) {
		origin, b, err := readProcID(b)
		if err != nil {
			return nil, err
		}
		seq, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		inner, err := Decode(b)
		if err != nil {
			return nil, err
		}
		return Broadcast{Origin: origin, Seq: seq, Inner: inner}, nil
	})
	register(KindQueryCommTag, func(b []byte) (Message, error) {
		op, _, err := readUvarint(b)
		return QueryCommTag{OpID: op}, err
	})
	register(KindQueryCommTagResp, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, _, err := readTag(b)
		return QueryCommTagResp{OpID: op, Tag: t}, err
	})
	register(KindQueryData, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, _, err := readTag(b)
		return QueryData{OpID: op, Req: t}, err
	})
	register(KindQueryDataResp, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		class := PayloadClass(b[0])
		t, b, err := readTag(b[1:])
		if err != nil {
			return nil, err
		}
		vl, b, err := readInt32(b)
		if err != nil {
			return nil, err
		}
		data, _, err := readBytes(b)
		return QueryDataResp{OpID: op, Class: class, Tag: t, Data: data, ValueLen: vl}, err
	})
	register(KindPutTag, func(b []byte) (Message, error) {
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, _, err := readTag(b)
		return PutTag{OpID: op, Tag: t}, err
	})
	register(KindPutTagResp, func(b []byte) (Message, error) {
		op, _, err := readUvarint(b)
		return PutTagResp{OpID: op}, err
	})
	register(KindWriteCodeElem, func(b []byte) (Message, error) {
		t, b, err := readTag(b)
		if err != nil {
			return nil, err
		}
		vl, b, err := readInt32(b)
		if err != nil {
			return nil, err
		}
		coded, _, err := readBytes(b)
		return WriteCodeElem{Tag: t, Coded: coded, ValueLen: vl}, err
	})
	register(KindAckCodeElem, func(b []byte) (Message, error) {
		t, _, err := readTag(b)
		return AckCodeElem{Tag: t}, err
	})
	register(KindWriteCodeElemBatch, func(b []byte) (Message, error) {
		n, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(b)) {
			// Each element encodes to at least one byte; a larger count than
			// remaining bytes is a malformed frame, not a huge allocation.
			return nil, ErrTruncated
		}
		elems := make([]CodeElem, n)
		for i := range elems {
			if elems[i].Tag, b, err = readTag(b); err != nil {
				return nil, err
			}
			if elems[i].ValueLen, b, err = readInt32(b); err != nil {
				return nil, err
			}
			if elems[i].Coded, b, err = readBytes(b); err != nil {
				return nil, err
			}
		}
		return WriteCodeElemBatch{Elems: elems}, nil
	})
	register(KindAckCodeElemBatch, func(b []byte) (Message, error) {
		n, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(b)) {
			return nil, ErrTruncated
		}
		tags := make([]tag.Tag, n)
		for i := range tags {
			if tags[i], b, err = readTag(b); err != nil {
				return nil, err
			}
		}
		return AckCodeElemBatch{Tags: tags}, nil
	})
	register(KindQueryCodeElem, func(b []byte) (Message, error) {
		r, b, err := readProcID(b)
		if err != nil {
			return nil, err
		}
		op, _, err := readUvarint(b)
		return QueryCodeElem{Reader: r, OpID: op}, err
	})
	register(KindSendHelperElem, func(b []byte) (Message, error) {
		r, b, err := readProcID(b)
		if err != nil {
			return nil, err
		}
		op, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		t, b, err := readTag(b)
		if err != nil {
			return nil, err
		}
		vl, b, err := readInt32(b)
		if err != nil {
			return nil, err
		}
		h, _, err := readBytes(b)
		return SendHelperElem{Reader: r, OpID: op, Tag: t, Helper: h, ValueLen: vl}, err
	})
}
