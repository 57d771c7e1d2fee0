package wire

import "github.com/lds-storage/lds/internal/tag"

// ABD baseline messages (Attiya-Bar-Noy-Dolev multi-writer multi-reader
// emulation, reference [3] of the paper). The protocol has two phases, both
// quorum round trips: a query phase collecting (tag, value) pairs and an
// update phase propagating a (tag, value) pair. Readers and writers share
// the same two message kinds.

// ABDQuery asks a server for its current (tag, value) pair. WantValue is
// false for writer queries, which only need the tag; this matches the usual
// cost-conscious statement of the protocol.
type ABDQuery struct {
	OpID      uint64
	WantValue bool
}

// Kind implements Message.
func (ABDQuery) Kind() Kind { return KindABDQuery }

func (m *ABDQuery) fields(c *codec) {
	c.uint64(&m.OpID)
	c.bool(&m.WantValue)
}

// ABDQueryResp returns the server's (tag, value) pair; Value is nil for
// tag-only queries.
type ABDQueryResp struct {
	OpID  uint64
	Tag   tag.Tag
	Value []byte
}

// Kind implements Message.
func (ABDQueryResp) Kind() Kind { return KindABDQueryResp }

func (m *ABDQueryResp) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
	c.bytes(&m.Value)
}

// ABDUpdate propagates a (tag, value) pair; servers adopt it if the tag
// exceeds their local tag.
type ABDUpdate struct {
	OpID  uint64
	Tag   tag.Tag
	Value []byte
}

// Kind implements Message.
func (ABDUpdate) Kind() Kind { return KindABDUpdate }

func (m *ABDUpdate) fields(c *codec) {
	c.uint64(&m.OpID)
	c.tag(&m.Tag)
	c.bytes(&m.Value)
}

// ABDUpdateAck acknowledges an update.
type ABDUpdateAck struct {
	OpID uint64
}

// Kind implements Message.
func (ABDUpdateAck) Kind() Kind { return KindABDUpdateAck }

func (m *ABDUpdateAck) fields(c *codec) { c.uint64(&m.OpID) }
