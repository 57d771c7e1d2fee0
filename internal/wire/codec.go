package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/lds-storage/lds/internal/tag"
)

// codec walks the fields of a message in wire order, in either direction:
// encoding appends each field to b; decoding reads each from the front of
// b into the message. A message lists its fields once, in its fields
// method, so its encoder and decoder cannot disagree on their order.
//
// Sizing is an encoding that writes nothing: it adds the length of every
// byte field's contents to payload and the length of everything else to
// meta, the split the paper's cost model bills by.
//
// A decode error is sticky: the first one is kept in err and b is
// emptied, so every later read fails too (each field takes at least one
// byte) and leaves its field as it was.
type codec struct {
	b             []byte
	dec, size     bool
	meta, payload int
	err           error
}

// errInt32Range rejects a varint that does not fit the int32 field it
// encodes; no encoder writes one.
var errInt32Range = errors.New("wire: int32 field out of range")

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

// more reports whether a trailing field that older builds do not send is
// present: always when encoding, while input is left when decoding. An
// absent field decodes as its zero value.
func (c *codec) more() bool { return !c.dec || len(c.b) > 0 }

// uvarint encodes x, or counts its length when sizing. The signed fields
// encode zigzag(x), as binary.AppendVarint does.
func (c *codec) uvarint(x uint64) {
	if c.size {
		c.meta += (bits.Len64(x|1) + 6) / 7
		return
	}
	c.b = binary.AppendUvarint(c.b, x)
}

func zigzag(x int64) uint64 { return uint64(x)<<1 ^ uint64(x>>63) }

func (c *codec) uint64(v *uint64) {
	if !c.dec {
		c.uvarint(*v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail(ErrTruncated)
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) int64(v *int64) {
	if !c.dec {
		c.uvarint(zigzag(*v))
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail(ErrTruncated)
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) int32(v *int32) {
	if !c.dec {
		c.uvarint(zigzag(int64(*v)))
		return
	}
	x, n := binary.Varint(c.b)
	switch {
	case n <= 0:
		c.fail(ErrTruncated)
	case x != int64(int32(x)):
		c.fail(errInt32Range)
	default:
		*v, c.b = int32(x), c.b[n:]
	}
}

func (c *codec) byte(v *byte) {
	switch {
	case c.size:
		c.meta++
	case !c.dec:
		c.b = append(c.b, *v)
	case len(c.b) == 0:
		c.fail(ErrTruncated)
	default:
		*v, c.b = c.b[0], c.b[1:]
	}
}

// bool is one byte, 1 for true; any other byte decodes as false.
func (c *codec) bool(v *bool) {
	var x byte
	if *v {
		x = 1
	}
	c.byte(&x)
	*v = x == 1
}

// count walks a length or an element count n and returns it. Decoding,
// it fails a count larger than the bytes left, since every byte or
// element takes at least one, so a forged count fails before anything is
// allocated for it.
func (c *codec) count(n int) int {
	if !c.dec {
		c.uvarint(uint64(n))
		return n
	}
	x, k := binary.Uvarint(c.b)
	if k <= 0 || x > uint64(len(c.b)-k) {
		c.fail(ErrTruncated)
		return 0
	}
	c.b = c.b[k:]
	return int(x)
}

// bytes walks a length-prefixed byte field, whose contents are payload.
// Decoded, it aliases the input (clipped to its length, so an append
// cannot overwrite what follows); Decode makes that input a private copy,
// DecodeAlias the caller's buffer.
func (c *codec) bytes(v *[]byte) {
	n := c.count(len(*v))
	switch {
	case c.size:
		c.payload += n
	case !c.dec:
		c.b = append(c.b, *v...)
	default:
		*v, c.b = c.b[:n:n], c.b[n:]
	}
}

// string is encoded like bytes, but is metadata; decoding copies it.
func (c *codec) string(v *string) {
	n := c.count(len(*v))
	switch {
	case c.size:
		c.meta += n
	case !c.dec:
		c.b = append(c.b, *v...)
	default:
		*v, c.b = string(c.b[:n]), c.b[n:]
	}
}

func (c *codec) tag(t *tag.Tag) {
	c.uint64(&t.Z)
	c.int32(&t.W)
}

func (c *codec) proc(p *ProcID) {
	c.byte((*byte)(&p.Role))
	c.int32(&p.Index)
}

// list walks the element count of *s and, decoding, allocates *s to the
// count read (never nil); the caller then walks each element.
func list[T any](c *codec, s *[]T) {
	if n := c.count(len(*s)); c.dec {
		*s = make([]T, n)
	}
}

// nodes walks a node table; an empty one decodes as nil, like the table
// of a GroupStats that carries none.
func (c *codec) nodes(s *[]NodeAddr) {
	if list(c, s); len(*s) == 0 {
		*s = nil
	}
	for i := range *s {
		c.int32(&(*s)[i].ID)
		c.string(&(*s)[i].Addr)
	}
}

// message walks a kind byte and a body of that kind.
func (c *codec) message(m *Message) {
	if !c.dec {
		k := byte((*m).Kind())
		c.byte(&k)
		c.encode(*m)
		return
	}
	var k byte
	c.byte(&k)
	if *m = c.decode(Kind(k)); *m == nil {
		c.fail(fmt.Errorf("wire: unknown message kind %d", k))
	}
}

// encode walks the body of m. Each case calls fields on its own copy of
// m: a static call, which keeps the codec and the copy on the stack.
func (c *codec) encode(m Message) {
	switch m := m.(type) {
	case QueryTag:
		m.fields(c)
	case QueryTagResp:
		m.fields(c)
	case PutData:
		m.fields(c)
	case PutDataResp:
		m.fields(c)
	case QueryCommTag:
		m.fields(c)
	case QueryCommTagResp:
		m.fields(c)
	case QueryData:
		m.fields(c)
	case QueryDataResp:
		m.fields(c)
	case PutTag:
		m.fields(c)
	case PutTagResp:
		m.fields(c)
	case Broadcast:
		m.fields(c)
	case CommitTag:
		m.fields(c)
	case WriteCodeElem:
		m.fields(c)
	case AckCodeElem:
		m.fields(c)
	case QueryCodeElem:
		m.fields(c)
	case SendHelperElem:
		m.fields(c)
	case ABDQuery:
		m.fields(c)
	case ABDQueryResp:
		m.fields(c)
	case ABDUpdate:
		m.fields(c)
	case ABDUpdateAck:
		m.fields(c)
	case WriteCodeElemBatch:
		m.fields(c)
	case AckCodeElemBatch:
		m.fields(c)
	case GroupServe:
		m.fields(c)
	case GroupServeResp:
		m.fields(c)
	case GroupRetire:
		m.fields(c)
	case GroupRetireResp:
		m.fields(c)
	case NodePing:
		m.fields(c)
	case NodePong:
		m.fields(c)
	case GroupStats:
		m.fields(c)
	case GroupStatsResp:
		m.fields(c)
	case ElemInventory:
		m.fields(c)
	case ElemInventoryResp:
		m.fields(c)
	case ElemFetch:
		m.fields(c)
	case ElemFetchResp:
		m.fields(c)
	case ElemRepair:
		m.fields(c)
	case ElemRepairResp:
		m.fields(c)
	default:
		panic(fmt.Sprintf("wire: %T is not a wire message", m))
	}
}

// decode walks a body of kind k into a new message; nil if no message
// has kind k.
func (c *codec) decode(k Kind) Message {
	switch k {
	case KindQueryTag:
		var m QueryTag
		m.fields(c)
		return m
	case KindQueryTagResp:
		var m QueryTagResp
		m.fields(c)
		return m
	case KindPutData:
		var m PutData
		m.fields(c)
		return m
	case KindPutDataResp:
		var m PutDataResp
		m.fields(c)
		return m
	case KindQueryCommTag:
		var m QueryCommTag
		m.fields(c)
		return m
	case KindQueryCommTagResp:
		var m QueryCommTagResp
		m.fields(c)
		return m
	case KindQueryData:
		var m QueryData
		m.fields(c)
		return m
	case KindQueryDataResp:
		var m QueryDataResp
		m.fields(c)
		return m
	case KindPutTag:
		var m PutTag
		m.fields(c)
		return m
	case KindPutTagResp:
		var m PutTagResp
		m.fields(c)
		return m
	case KindBroadcast:
		var m Broadcast
		m.fields(c)
		return m
	case KindCommitTag:
		var m CommitTag
		m.fields(c)
		return m
	case KindWriteCodeElem:
		var m WriteCodeElem
		m.fields(c)
		return m
	case KindAckCodeElem:
		var m AckCodeElem
		m.fields(c)
		return m
	case KindQueryCodeElem:
		var m QueryCodeElem
		m.fields(c)
		return m
	case KindSendHelperElem:
		var m SendHelperElem
		m.fields(c)
		return m
	case KindABDQuery:
		var m ABDQuery
		m.fields(c)
		return m
	case KindABDQueryResp:
		var m ABDQueryResp
		m.fields(c)
		return m
	case KindABDUpdate:
		var m ABDUpdate
		m.fields(c)
		return m
	case KindABDUpdateAck:
		var m ABDUpdateAck
		m.fields(c)
		return m
	case KindWriteCodeElemBatch:
		var m WriteCodeElemBatch
		m.fields(c)
		return m
	case KindAckCodeElemBatch:
		var m AckCodeElemBatch
		m.fields(c)
		return m
	case KindGroupServe:
		var m GroupServe
		m.fields(c)
		return m
	case KindGroupServeResp:
		var m GroupServeResp
		m.fields(c)
		return m
	case KindGroupRetire:
		var m GroupRetire
		m.fields(c)
		return m
	case KindGroupRetireResp:
		var m GroupRetireResp
		m.fields(c)
		return m
	case KindNodePing:
		var m NodePing
		m.fields(c)
		return m
	case KindNodePong:
		var m NodePong
		m.fields(c)
		return m
	case KindGroupStats:
		var m GroupStats
		m.fields(c)
		return m
	case KindGroupStatsResp:
		var m GroupStatsResp
		m.fields(c)
		return m
	case KindElemInventory:
		var m ElemInventory
		m.fields(c)
		return m
	case KindElemInventoryResp:
		var m ElemInventoryResp
		m.fields(c)
		return m
	case KindElemFetch:
		var m ElemFetch
		m.fields(c)
		return m
	case KindElemFetchResp:
		var m ElemFetchResp
		m.fields(c)
		return m
	case KindElemRepair:
		var m ElemRepair
		m.fields(c)
		return m
	case KindElemRepairResp:
		var m ElemRepairResp
		m.fields(c)
		return m
	}
	return nil
}
