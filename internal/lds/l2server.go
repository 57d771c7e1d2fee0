package lds

import (
	"fmt"
	"hash/fnv"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// L2Server is one back-end server s_{n1+i} (paper, Fig. 3). Its entire
// state is a single (tag, coded-element) pair: an incoming coded element
// replaces the stored one when its tag is higher, and helper-data queries
// are answered from the stored element alone.
//
// The server is a state machine: Step and the repair-plane methods below
// (ElemStat, ElemData, HelperToward, InstallRepair, CorruptStored) are each
// one atomic action and must not overlap.
type L2Server struct {
	params Params
	index  int // i in [0, n2); code symbol index is n1 + i
	id     wire.ProcID
	code   erasure.Regenerating

	// State variables (t, c) plus the original value length, which decoding
	// ultimately needs because shards are padded to whole stripes.
	tag      tag.Tag
	coded    []byte
	valueLen int
	// storedSum is the FNV-64a digest of coded recorded when the element
	// was adopted. The scrubber recomputes it on demand: a mismatch means
	// the stored bytes rotted after adoption (simulated in tests by
	// CorruptStored, which mutates coded without touching the digest).
	storedSum uint64
}

// elemDigest is the scrub digest over a stored coded element.
func elemDigest(coded []byte) uint64 {
	h := fnv.New64a()
	h.Write(coded)
	return h.Sum64()
}

// NewL2Server creates the server with its stored pair at (seed,
// coded(value)). With seed = tag.Zero that is the paper's initial state
// (t0, c0), the coded element of the distinguished initial value v0. Any
// other seed is the state the server would hold after acknowledging an
// offload of value at the seed tag; together with NewL1Server this boots a
// group from a migration snapshot — the replace-if-newer rule then
// guarantees only strictly newer writes displace the seeded element.
func NewL2Server(params Params, index int, code erasure.Regenerating, value []byte, seed tag.Tag) (*L2Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= params.N2 {
		return nil, fmt.Errorf("lds: L2 index %d out of range [0, %d)", index, params.N2)
	}
	c0, err := code.EncodeNode(value, params.L2CodeIndex(index))
	if err != nil {
		return nil, fmt.Errorf("lds: encode initial value: %w", err)
	}
	s := &L2Server{
		params: params,
		index:  index,
		id:     wire.ProcID{Role: wire.RoleL2, Index: int32(index)},
		code:   code,
	}
	s.adopt(seed, c0, len(value))
	return s, nil
}

// ID returns the server's process id.
func (s *L2Server) ID() wire.ProcID { return s.id }

// Tag returns the currently stored tag (for tests and storage accounting).
func (s *L2Server) Tag() tag.Tag { return s.tag }

// StoredBytes returns the size of the stored coded element, the server's
// contribution to permanent storage cost.
func (s *L2Server) StoredBytes() int64 { return int64(len(s.coded)) }

// adopt replaces the stored pair.
func (s *L2Server) adopt(t tag.Tag, coded []byte, valueLen int) {
	s.tag = t
	s.coded = coded
	s.valueLen = valueLen
	s.storedSum = elemDigest(coded)
}

// ElemStat reports the stored element's scrub view: tag, recorded digest,
// sizes, and whether the stored bytes still hash to the recorded digest.
func (s *L2Server) ElemStat() wire.ElemStat {
	return wire.ElemStat{
		Index:     int32(s.index),
		Tag:       s.tag,
		Digest:    s.storedSum,
		StoredLen: int32(len(s.coded)),
		ValueLen:  int32(s.valueLen),
		Healthy:   elemDigest(s.coded) == s.storedSum,
	}
}

// ElemData returns a copy of the stored (tag, coded element, value length)
// triple — the RS decode-reencode repair path's fetch unit.
func (s *L2Server) ElemData() (tag.Tag, []byte, int) {
	coded := make([]byte, len(s.coded))
	copy(coded, s.coded)
	return s.tag, coded, s.valueLen
}

// HelperToward computes the regenerating code's helper data from the
// stored element toward the repair of code symbol failedCode (n1 + j for
// L2 server j) — beta bytes per stripe, the repair-bandwidth unit of the
// MSR/MBR codes. It returns the tag and value length the helper data
// belongs to.
func (s *L2Server) HelperToward(failedCode int) (tag.Tag, []byte, int, error) {
	helper, err := s.code.Helper(s.coded, s.params.L2CodeIndex(s.index), failedCode)
	if err != nil {
		return tag.Tag{}, nil, 0, err
	}
	return s.tag, helper, s.valueLen, nil
}

// InstallRepair adopts a regenerated element unless the stored tag is
// strictly newer. Equal tags do replace the stored bytes — that is what
// heals a corrupt element whose tag is already current — while a stored
// element a racing write just advanced past t wins, so repair can never
// roll the permanent layer backwards. It reports whether the element was
// adopted.
func (s *L2Server) InstallRepair(t tag.Tag, coded []byte, valueLen int) bool {
	if t.Less(s.tag) {
		return false
	}
	s.adopt(t, coded, valueLen)
	return true
}

// CorruptStored flips one stored byte without updating the recorded
// digest — simulated bit rot for scrub/repair tests and chaos drills. It
// reports false when the element is empty.
func (s *L2Server) CorruptStored() bool {
	if len(s.coded) == 0 {
		return false
	}
	// Copy-on-corrupt: the slice may be shared with an in-flight message.
	coded := make([]byte, len(s.coded))
	copy(coded, s.coded)
	coded[len(coded)/2] ^= 0xff
	s.coded = coded
	return true
}

// Step consumes one message from process from and queues the messages the
// action sends in out. Unknown traffic is ignored, never fatal: a
// byzantine-free model still sees stale messages from closed epochs in
// tests.
func (s *L2Server) Step(from wire.ProcID, msg wire.Message, out *wire.Outbox) {
	switch m := msg.(type) {
	case wire.WriteCodeElem:
		s.onWriteCodeElem(from, m, out)
	case wire.WriteCodeElemBatch:
		s.onWriteCodeElemBatch(from, m, out)
	case wire.QueryCodeElem:
		s.onQueryCodeElem(from, m, out)
	}
}

// onWriteCodeElem is write-to-L2-resp (Fig. 3): adopt the element if its
// tag is newer, and acknowledge either way.
func (s *L2Server) onWriteCodeElem(from wire.ProcID, m wire.WriteCodeElem, out *wire.Outbox) {
	if s.tag.Less(m.Tag) {
		s.adopt(m.Tag, m.Coded, int(m.ValueLen))
	}
	out.Send(from, wire.AckCodeElem{Tag: m.Tag})
}

// onWriteCodeElemBatch applies a batched offload: each element runs
// through the same replace-if-newer rule as an individual WriteCodeElem,
// and a single AckCodeElemBatch acknowledges every element's tag, so the
// return path is amortized exactly like the forward path.
func (s *L2Server) onWriteCodeElemBatch(from wire.ProcID, m wire.WriteCodeElemBatch, out *wire.Outbox) {
	if len(m.Elems) == 0 {
		return
	}
	tags := make([]tag.Tag, len(m.Elems))
	for i, el := range m.Elems {
		if s.tag.Less(el.Tag) {
			s.adopt(el.Tag, el.Coded, int(el.ValueLen))
		}
		tags[i] = el.Tag
	}
	out.Send(from, wire.AckCodeElemBatch{Tags: tags})
}

// onQueryCodeElem is regenerate-from-L2-resp (Fig. 3): compute the helper
// data h_{n1+i, j} for repairing the requesting L1 server's coded element
// c_j. The failed index j is the sender's code index; the MBR construction
// guarantees the helper data depends only on j (paper, Section II-c).
func (s *L2Server) onQueryCodeElem(from wire.ProcID, m wire.QueryCodeElem, out *wire.Outbox) {
	if from.Role != wire.RoleL1 {
		return
	}
	// L1 server j's code index is j.
	t, helper, valueLen, err := s.HelperToward(int(from.Index))
	if err != nil {
		// The stored element is always well-formed; an error here means a
		// malformed request (e.g. out-of-range sender), which we drop.
		return
	}
	out.Send(from, wire.SendHelperElem{
		Reader:   m.Reader,
		OpID:     m.OpID,
		Tag:      t,
		Helper:   helper,
		ValueLen: int32(valueLen),
	})
}
