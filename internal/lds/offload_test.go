package lds

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// Tests for the batched L2 offload pipeline and the bounded-bookkeeping
// guarantees: ack crediting per distinct sender, coalescing of superseded
// tags, equivalence of batched and unbatched offload at L2, and the
// sustained-write soak that pins every per-tag map.

// newTestServerMode builds the standard small geometry in the given
// offload mode: an L1 server with index 0 and the outbox its steps are
// driven with.
func newTestServerMode(t *testing.T, mode OffloadMode) (*L1Server, *wire.Outbox, Params) {
	t.Helper()
	p := MustTestParams(t, 4, 5, 1, 1) // k=2, d=3, quorum f1+k=3, L2 quorum 4
	p.Offload = mode
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewL1Server(p, 0, code, tag.Zero, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, &wire.Outbox{}, p
}

// ackOffloads answers every offload message in envs (batched or not) the
// way its L2 destination would.
func ackOffloads(s *L1Server, out *wire.Outbox, envs []wire.Envelope) {
	ackRound(s, out, envs)
	for _, e := range ofKind(envs, wire.KindWriteCodeElem) {
		m := e.Msg.(wire.WriteCodeElem)
		s.Step(e.To, wire.AckCodeElem{Tag: m.Tag}, out)
	}
}

func TestL1AckCountsDistinctSendersOnly(t *testing.T) {
	// Regression test for the ack double-counting bug: L2Quorum raw ack
	// messages from a single L2 server must not count as a quorum of
	// durable copies.
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("dup")}, out)
	commit(t, s, out, p, tg)
	take(out)

	one := wire.ProcID{Role: wire.RoleL2, Index: 0}
	for i := 0; i < 3*p.L2Quorum(); i++ {
		s.Step(one, wire.AckCodeElem{Tag: tg}, out)
	}
	if s.TemporaryBytes() == 0 {
		t.Fatal("duplicated acks from one sender reached the L2 quorum")
	}
	// Acks from non-L2 or out-of-range senders must not count either.
	for _, from := range []wire.ProcID{
		{Role: wire.RoleReader, Index: 1},
		{Role: wire.RoleL2, Index: int32(p.N2)},
		{Role: wire.RoleL2, Index: -1},
	} {
		s.Step(from, wire.AckCodeElem{Tag: tg}, out)
	}
	if s.TemporaryBytes() == 0 {
		t.Fatal("invalid senders were credited toward the L2 quorum")
	}
	// Distinct senders complete the write: one is already credited, so
	// L2Quorum-1 more finish it.
	for i := 1; i < p.L2Quorum(); i++ {
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.AckCodeElem{Tag: tg}, out)
	}
	if got := s.TemporaryBytes(); got != 0 {
		t.Fatalf("temporary bytes = %d after a distinct-sender quorum, want 0", got)
	}
	if v := s.Violations(); v != 0 {
		t.Errorf("violations = %d", v)
	}
}

func TestL1OffloadCoalescesSupersededTags(t *testing.T) {
	// While a batch round is in flight, further commits coalesce: the queue
	// retains only the newest OffloadBatchCap tags, and the next round carries
	// them in one WriteCodeElemBatch per L2 server.
	s, out, p := newTestServerMode(t, OffloadBatched)
	cap := OffloadBatchCap

	write := func(z uint64) tag.Tag {
		tg := tag.Tag{Z: z, W: 1}
		s.Step(writer1, wire.PutData{OpID: z, Tag: tg, Value: []byte(fmt.Sprintf("v%03d", z))}, out)
		commit(t, s, out, p, tg)
		return tg
	}

	write(1)
	round1 := take(out)
	if got := len(ofKind(round1, wire.KindWriteCodeElemBatch)); got != p.N2 {
		t.Fatalf("first commit sent %d batches, want %d", got, p.N2)
	}

	// Seven more commits land while round 1 travels.
	total := 1 + cap + 3
	for z := 2; z <= total; z++ {
		write(uint64(z))
	}
	if extra := ofKind(take(out), wire.KindWriteCodeElemBatch); len(extra) != 0 {
		t.Fatalf("%d batches sent while a round was in flight", len(extra))
	}
	if got, want := s.OffloadQueueDepth(), int64(cap+1); got != want {
		t.Errorf("offload depth = %d, want %d (1 in flight + %d queued)", got, want, cap)
	}

	// Completing round 1 drains the retained tail: exactly the newest
	// OffloadBatchCap tags, in one batch per server.
	ackRound(s, out, round1)
	round2 := take(out)
	batches := ofKind(round2, wire.KindWriteCodeElemBatch)
	if len(batches) != p.N2 {
		t.Fatalf("drain sent %d batches, want %d", len(batches), p.N2)
	}
	elems := batches[0].Msg.(wire.WriteCodeElemBatch).Elems
	if len(elems) != cap {
		t.Fatalf("batch carries %d elements, want the %d newest", len(elems), cap)
	}
	for i, el := range elems {
		if want := uint64(total - cap + 1 + i); el.Tag.Z != want {
			t.Errorf("element %d carries z=%d, want %d (ascending newest tail)", i, el.Tag.Z, want)
		}
	}
	// Completing round 2 empties the pipeline and garbage-collects the
	// committed value.
	ackRound(s, out, round2)
	if got := s.OffloadQueueDepth(); got != 0 {
		t.Errorf("offload depth = %d after all rounds completed, want 0", got)
	}
	if got := s.TemporaryBytes(); got != 0 {
		t.Errorf("temporary bytes = %d after all rounds completed, want 0", got)
	}
	if v := s.Violations(); v != 0 {
		t.Errorf("violations = %d", v)
	}
}

// l2Fleet is a bank of real L2 servers, used to pump offload traffic
// through the genuine replace-if-newer path.
type l2Fleet struct {
	servers []*L2Server
}

func newL2Fleet(t *testing.T, p Params) *l2Fleet {
	t.Helper()
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	f := &l2Fleet{}
	for i := 0; i < p.N2; i++ {
		srv, err := NewL2Server(p, i, code, nil, tag.Zero)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
	}
	return f
}

// pump shuttles the L1 server's queued messages to the fleet and the
// fleet's answers back until no traffic remains.
func (f *l2Fleet) pump(s *L1Server, out *wire.Outbox) {
	backs := make([]wire.Outbox, len(f.servers))
	for len(out.Msgs) > 0 {
		for _, env := range take(out) {
			if env.To.Role == wire.RoleL2 && int(env.To.Index) < len(f.servers) {
				f.servers[env.To.Index].Step(s.ID(), env.Msg, &backs[env.To.Index])
			}
		}
		for i := range backs {
			for _, env := range take(&backs[i]) {
				if env.To == s.ID() {
					s.Step(f.servers[i].ID(), env.Msg, out)
				}
			}
		}
	}
}

func TestBatchedOffloadEquivalentToUnbatched(t *testing.T) {
	// The same commit sequence, offloaded batched and unbatched, must leave
	// every L2 server in the identical (tag, coded element) state -- the
	// batched pipeline changes how bytes travel, never what L2 stores.
	type l2State struct {
		tag   tag.Tag
		bytes int64
	}
	const writes = 9
	run := func(mode OffloadMode) ([]l2State, *L1Server) {
		s, out, p := newTestServerMode(t, mode)
		fleet := newL2Fleet(t, p)
		for z := 1; z <= writes; z++ {
			tg := tag.Tag{Z: uint64(z), W: 1}
			s.Step(writer1, wire.PutData{OpID: uint64(z), Tag: tg, Value: []byte(fmt.Sprintf("value-%04d", z))}, out)
			commit(t, s, out, p, tg)
			// No pumping between commits: in batched mode all but the first
			// round's tags coalesce, exercising supersession.
		}
		fleet.pump(s, out)
		states := make([]l2State, p.N2)
		for i, srv := range fleet.servers {
			states[i] = l2State{tag: srv.Tag(), bytes: srv.StoredBytes()}
		}
		return states, s
	}

	batched, sb := run(OffloadBatched)
	unbatched, su := run(OffloadUnbatched)
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Errorf("L2 server %d state differs: batched %+v vs unbatched %+v",
				i, batched[i], unbatched[i])
		}
		if batched[i].tag != (tag.Tag{Z: writes, W: 1}) {
			t.Errorf("L2 server %d holds %v, want the last committed tag", i, batched[i].tag)
		}
	}
	for _, s := range []*L1Server{sb, su} {
		if got := s.TemporaryBytes(); got != 0 {
			t.Errorf("temporary bytes = %d after the pipeline drained, want 0", got)
		}
		if got := s.OffloadQueueDepth(); got != 0 {
			t.Errorf("offload depth = %d after the pipeline drained, want 0", got)
		}
		if v := s.Violations(); v != 0 {
			t.Errorf("violations = %d", v)
		}
	}
}

func TestL1BookkeepingBoundedUnderSustainedWrites(t *testing.T) {
	// The soak: thousands of sequential writes with full broadcast traffic,
	// duplicate acks and straggler broadcasts must leave every per-tag map
	// at constant size. Before the pruning fix, commitCounter, the list and
	// the offload bookkeeping each grew by one entry per write.
	const writes = 6000
	for _, mode := range []OffloadMode{OffloadBatched, OffloadUnbatched} {
		name := map[OffloadMode]string{OffloadBatched: "batched", OffloadUnbatched: "unbatched"}[mode]
		t.Run(name, func(t *testing.T) {
			s, out, p := newTestServerMode(t, mode)
			value := bytes.Repeat([]byte{0xA5}, 64)
			// The census bound: the committed tag's list entry plus a full
			// offload pipeline (<= OffloadBatchCap queued + OffloadBatchCap in flight).
			bound := 1 + 2*OffloadBatchCap
			for z := 1; z <= writes; z++ {
				tg := tag.Tag{Z: uint64(z), W: 1}
				s.Step(writer1, wire.PutData{OpID: uint64(z), Tag: tg, Value: value}, out)
				// All n1 origins broadcast (the full system's traffic, not
				// just the quorum), so the post-commit guard is exercised.
				for origin := 0; origin < p.N1; origin++ {
					s.Step(wire.ProcID{Role: wire.RoleL1, Index: int32(origin)}, wire.Broadcast{Origin: wire.ProcID{Role: wire.RoleL1, Index: int32(origin)},
						Seq: tg.Z, Inner: wire.CommitTag{Tag: tg}}, out)
				}
				envs := take(out)
				// L2 acks the round twice: duplicates must change nothing.
				ackOffloads(s, out, envs)
				ackOffloads(s, out, envs)

				if z%500 == 0 || z == writes {
					bk := s.Bookkeeping()
					if got := bk.Total(); got > bound {
						t.Fatalf("write %d: bookkeeping entries = %d (%+v), want <= %d", z, got, bk, bound)
					}
					if got := s.TemporaryBytes(); got != 0 {
						t.Fatalf("write %d: temporary bytes = %d after offload completed, want 0", z, got)
					}
					if got := s.OffloadQueueDepth(); got != 0 {
						t.Fatalf("write %d: offload depth = %d, want 0", z, got)
					}
					if s.maxListTag != tg || s.CommittedTag() != tg {
						t.Fatalf("write %d: maxListTag %v / tc %v, want %v (cache correct under pruning)",
							z, s.maxListTag, s.CommittedTag(), tg)
					}
					if _, ok := s.list[tg]; !ok {
						t.Fatalf("write %d: committed tag missing from the list", z)
					}
				}
			}
			// Straggler broadcasts for long-superseded tags must not regrow
			// the counters.
			for z := 1; z <= writes; z += 100 {
				s.Step(wire.ProcID{Role: wire.RoleL1, Index: 2}, wire.Broadcast{Origin: wire.ProcID{Role: wire.RoleL1, Index: 2},
					Seq: uint64(writes + z), Inner: wire.CommitTag{Tag: tag.Tag{Z: uint64(z), W: 1}}}, out)
			}
			if got := len(s.commitCounter); got != 0 {
				t.Errorf("straggler broadcasts regrew commitCounter to %d entries", got)
			}
			if v := s.Violations(); v != 0 {
				t.Errorf("violations = %d", v)
			}
		})
	}
}

func TestL2BatchAppliesReplaceIfNewerPerElement(t *testing.T) {
	// A batch mixing stale and fresh tags adopts only the freshest and
	// acknowledges every element.
	s, out, _ := newTestL2(t, nil)
	l1 := wire.ProcID{Role: wire.RoleL1, Index: 0}
	t2 := tag.Tag{Z: 2, W: 1}
	t3 := tag.Tag{Z: 3, W: 1}
	t1 := tag.Tag{Z: 1, W: 1}
	s.Step(l1, wire.WriteCodeElemBatch{Elems: []wire.CodeElem{
		{Tag: t2, Coded: []byte{2, 2}, ValueLen: 2},
		{Tag: t3, Coded: []byte{3, 3, 3}, ValueLen: 3},
	}}, out)
	acks := ofKind(take(out), wire.KindAckCodeElemBatch)
	if len(acks) != 1 {
		t.Fatalf("got %d batch acks, want 1", len(acks))
	}
	if got := acks[0].Msg.(wire.AckCodeElemBatch).Tags; len(got) != 2 || got[0] != t2 || got[1] != t3 {
		t.Errorf("ack tags = %v, want [%v %v]", got, t2, t3)
	}
	if s.Tag() != t3 || s.StoredBytes() != 3 {
		t.Errorf("state = (%v, %d bytes), want (%v, 3)", s.Tag(), s.StoredBytes(), t3)
	}
	// A later batch carrying only stale tags is acknowledged but ignored.
	s.Step(l1, wire.WriteCodeElemBatch{Elems: []wire.CodeElem{
		{Tag: t1, Coded: []byte{1}, ValueLen: 1},
	}}, out)
	if len(ofKind(take(out), wire.KindAckCodeElemBatch)) != 1 {
		t.Error("stale batch not acknowledged")
	}
	if s.Tag() != t3 {
		t.Errorf("stale batch adopted: tag = %v", s.Tag())
	}
	// An empty batch is dropped without an ack.
	s.Step(l1, wire.WriteCodeElemBatch{}, out)
	if got := len(take(out)); got != 0 {
		t.Errorf("empty batch produced %d responses", got)
	}
}
