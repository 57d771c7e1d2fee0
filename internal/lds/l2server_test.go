package lds

import (
	"bytes"
	"testing"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

func newTestL2(t *testing.T, initial []byte) (*L2Server, *wire.Outbox, Params) {
	t.Helper()
	p := MustTestParams(t, 4, 5, 1, 1)
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewL2Server(p, 2, code, initial, tag.Zero)
	if err != nil {
		t.Fatal(err)
	}
	return s, &wire.Outbox{}, p
}

func TestNewL2ServerValidation(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewL2Server(p, -1, code, nil, tag.Zero); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := NewL2Server(p, 5, code, nil, tag.Zero); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestL2InitialStateEncodesV0(t *testing.T) {
	initial := []byte("genesis value")
	s, _, p := newTestL2(t, initial)
	if !s.Tag().IsZero() {
		t.Errorf("initial tag = %v, want t0", s.Tag())
	}
	code, _ := p.NewCode()
	want, err := encodeNode(code, initial, p.L2CodeIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.StoredBytes() != int64(len(want)) {
		t.Errorf("stored %d bytes, want %d", s.StoredBytes(), len(want))
	}
}

func TestL2WriteCodeElemAdoptsNewerOnly(t *testing.T) {
	s, out, _ := newTestL2(t, nil)
	l1 := wire.ProcID{Role: wire.RoleL1, Index: 0}

	t2 := tag.Tag{Z: 2, W: 1}
	s.Step(l1, wire.WriteCodeElem{Tag: t2, Coded: []byte{1, 2, 3}, ValueLen: 3}, out)
	acks := ofKind(take(out), wire.KindAckCodeElem)
	if len(acks) != 1 || acks[0].Msg.(wire.AckCodeElem).Tag != t2 {
		t.Fatalf("ack = %v", acks)
	}
	if s.Tag() != t2 {
		t.Errorf("tag = %v, want %v", s.Tag(), t2)
	}

	// An older element is acknowledged but not adopted.
	t1 := tag.Tag{Z: 1, W: 1}
	s.Step(l1, wire.WriteCodeElem{Tag: t1, Coded: []byte{9, 9, 9, 9}, ValueLen: 4}, out)
	acks = ofKind(take(out), wire.KindAckCodeElem)
	if len(acks) != 1 || acks[0].Msg.(wire.AckCodeElem).Tag != t1 {
		t.Fatalf("stale write not acknowledged: %v", acks)
	}
	if s.Tag() != t2 {
		t.Errorf("stale element adopted: tag = %v", s.Tag())
	}
	if s.StoredBytes() != 3 {
		t.Errorf("stored bytes = %d, want 3 (newer element)", s.StoredBytes())
	}
}

func TestL2QueryCodeElemReturnsHelper(t *testing.T) {
	value := []byte("helper data source")
	s, out, p := newTestL2(t, value)
	code, _ := p.NewCode()

	requester := wire.ProcID{Role: wire.RoleL1, Index: 1}
	reader := wire.ProcID{Role: wire.RoleReader, Index: 3}
	s.Step(requester, wire.QueryCodeElem{Reader: reader, OpID: 42}, out)
	resps := ofKind(take(out), wire.KindSendHelperElem)
	if len(resps) != 1 {
		t.Fatalf("got %d helper responses", len(resps))
	}
	m := resps[0].Msg.(wire.SendHelperElem)
	if m.Reader != reader || m.OpID != 42 || !m.Tag.IsZero() {
		t.Errorf("helper metadata = %+v", m)
	}
	if int(m.ValueLen) != len(value) {
		t.Errorf("ValueLen = %d, want %d", m.ValueLen, len(value))
	}
	// The helper must equal the code's helper for (own shard, failed = 1).
	shard, err := encodeNode(code, value, p.L2CodeIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := code.Helper(shard, p.L2CodeIndex(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Helper, want) {
		t.Error("helper bytes differ from the code's Helper output")
	}
}

func TestL2QueryFromNonL1Ignored(t *testing.T) {
	s, out, _ := newTestL2(t, nil)
	s.Step(wire.ProcID{Role: wire.RoleReader, Index: 1}, wire.QueryCodeElem{Reader: wire.ProcID{Role: wire.RoleReader, Index: 1}, OpID: 1}, out)
	if len(take(out)) != 0 {
		t.Error("helper served to a non-L1 requester")
	}
}

func TestL2UnknownMessageIgnored(t *testing.T) {
	s, out, _ := newTestL2(t, nil)
	s.Step(wire.ProcID{Role: wire.RoleL1, Index: 0}, wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}, out)
	if len(take(out)) != 0 {
		t.Error("unexpected response to unknown traffic")
	}
}

func TestL2HelpersFromTwoServersAgree(t *testing.T) {
	// Two L2 servers answering the same regeneration request produce
	// helper data that actually regenerates the L1 server's element; this
	// is the property Lemma IV.4 builds on.
	p := MustTestParams(t, 4, 5, 1, 1)
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("cross-server consistency")
	var helpers []wire.SendHelperElem
	for i := 0; i < p.N2; i++ {
		s, err := NewL2Server(p, i, code, value, tag.Zero)
		if err != nil {
			t.Fatal(err)
		}
		out := &wire.Outbox{}
		s.Step(wire.ProcID{Role: wire.RoleL1, Index: 0}, wire.QueryCodeElem{Reader: wire.ProcID{Role: wire.RoleReader, Index: 1}, OpID: 1}, out)
		resp := ofKind(take(out), wire.KindSendHelperElem)
		if len(resp) != 1 {
			t.Fatalf("server %d: %d responses", i, len(resp))
		}
		helpers = append(helpers, resp[0].Msg.(wire.SendHelperElem))
	}
	// Regenerate L1/0's element from the first d helpers.
	regenHelpers := make([]erasure.Helper, 0, p.D)
	for i, h := range helpers[:p.D] {
		regenHelpers = append(regenHelpers, erasure.Helper{Index: p.L2CodeIndex(i), Data: h.Helper})
	}
	coded, err := code.Regenerate(0, regenHelpers)
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	want, err := encodeNode(code, value, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coded, want) {
		t.Error("helpers from independent L2 servers failed to regenerate c_0")
	}
}
