package lds

import (
	"testing"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// take returns what the steps so far queued in out, and empties it.
func take(out *wire.Outbox) []wire.Envelope {
	envs := append([]wire.Envelope(nil), out.Msgs...)
	out.Reset()
	return envs
}

// ofKind filters envelopes by message kind.
func ofKind(envs []wire.Envelope, k wire.Kind) []wire.Envelope {
	var out []wire.Envelope
	for _, e := range envs {
		if e.Msg.Kind() == k {
			out = append(out, e)
		}
	}
	return out
}

// newTestServer builds an L1 server with index 0 and the outbox its steps
// are driven with.
func newTestServer(t *testing.T) (*L1Server, *wire.Outbox, Params) {
	t.Helper()
	return newTestServerMode(t, OffloadBatched)
}

// commit drives the server's commit counter to the write quorum for tag tg
// by delivering distinct-origin broadcasts. Each origin broadcasts each tag
// once, so the per-origin sequence number is the tag's z component.
func commit(t *testing.T, s *L1Server, out *wire.Outbox, p Params, tg tag.Tag) {
	t.Helper()
	for origin := 0; origin < p.WriteQuorum(); origin++ {
		s.Step(wire.ProcID{Role: wire.RoleL1, Index: int32(origin)}, wire.Broadcast{Origin: wire.ProcID{Role: wire.RoleL1, Index: int32(origin)}, Seq: tg.Z, Inner: wire.CommitTag{Tag: tg}}, out)
	}
}

var (
	writer1 = wire.ProcID{Role: wire.RoleWriter, Index: 1}
	reader1 = wire.ProcID{Role: wire.RoleReader, Index: 1}
)

// batchElems flattens the coded elements of all WriteCodeElemBatch
// envelopes in envs.
func batchElems(envs []wire.Envelope) []wire.CodeElem {
	var out []wire.CodeElem
	for _, e := range ofKind(envs, wire.KindWriteCodeElemBatch) {
		out = append(out, e.Msg.(wire.WriteCodeElemBatch).Elems...)
	}
	return out
}

// ackRound answers every WriteCodeElemBatch in envs the way its L2
// destination would: one AckCodeElemBatch carrying the batch's tags,
// delivered back into the server.
func ackRound(s *L1Server, out *wire.Outbox, envs []wire.Envelope) {
	for _, e := range ofKind(envs, wire.KindWriteCodeElemBatch) {
		b := e.Msg.(wire.WriteCodeElemBatch)
		tags := make([]tag.Tag, len(b.Elems))
		for i, el := range b.Elems {
			tags[i] = el.Tag
		}
		s.Step(e.To, wire.AckCodeElemBatch{Tags: tags}, out)
	}
}

func TestL1QueryTagReturnsMaxListTag(t *testing.T) {
	s, out, _ := newTestServer(t)
	s.Step(writer1, wire.QueryTag{OpID: 1}, out)
	resp := ofKind(take(out), wire.KindQueryTagResp)
	if len(resp) != 1 {
		t.Fatalf("got %d responses", len(resp))
	}
	if got := resp[0].Msg.(wire.QueryTagResp).Tag; !got.IsZero() {
		t.Errorf("initial max tag = %v, want t0", got)
	}

	// After put-data of (1,1), the max rises even before commit.
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 2, Tag: tg, Value: []byte("x")}, out)
	take(out)
	s.Step(writer1, wire.QueryTag{OpID: 3}, out)
	resp = ofKind(take(out), wire.KindQueryTagResp)
	if got := resp[0].Msg.(wire.QueryTagResp).Tag; got != tg {
		t.Errorf("max tag = %v, want %v", got, tg)
	}
}

func TestL1PutDataBroadcastsBeforeAnything(t *testing.T) {
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("v")}, out)
	bcasts := ofKind(take(out), wire.KindBroadcast)
	if len(bcasts) != p.RelayCount() {
		t.Fatalf("broadcast to %d relays, want f1+1 = %d", len(bcasts), p.RelayCount())
	}
	inner := bcasts[0].Msg.(wire.Broadcast).Inner.(wire.CommitTag)
	if inner.Tag != tg {
		t.Errorf("broadcast tag = %v, want %v", inner.Tag, tg)
	}
}

func TestL1StalePutDataAckedImmediately(t *testing.T) {
	s, out, p := newTestServer(t)
	// Commit (2,1) so tc = (2,1).
	newer := tag.Tag{Z: 2, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: newer, Value: []byte("new")}, out)
	commit(t, s, out, p, newer)
	take(out)

	// A put-data with an older tag is acknowledged without being stored.
	old := tag.Tag{Z: 1, W: 9}
	s.Step(wire.ProcID{Role: wire.RoleWriter, Index: 9}, wire.PutData{OpID: 5, Tag: old, Value: []byte("old")}, out)
	envs := take(out)
	acks := ofKind(envs, wire.KindPutDataResp)
	if len(acks) != 1 {
		t.Fatalf("got %d acks, want immediate ack", len(acks))
	}
	if acks[0].To != (wire.ProcID{Role: wire.RoleWriter, Index: 9}) {
		t.Errorf("ack went to %v", acks[0].To)
	}
	if _, ok := s.list[old]; ok {
		t.Error("stale tag must not enter the list")
	}
}

func TestL1CommitTriggersAckGCAndWriteToL2(t *testing.T) {
	s, out, p := newTestServer(t)
	t1 := tag.Tag{Z: 1, W: 1}
	t2 := tag.Tag{Z: 2, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: t1, Value: []byte("one")}, out)
	commit(t, s, out, p, t1)
	round1 := take(out)
	// Committing t1 drains the offload queue: one batch per L2 server,
	// each carrying t1's coded element.
	if got := len(ofKind(round1, wire.KindWriteCodeElemBatch)); got != p.N2 {
		t.Fatalf("first commit sent %d batches, want n2 = %d", got, p.N2)
	}
	s.Step(writer1, wire.PutData{OpID: 2, Tag: t2, Value: []byte("two")}, out)
	envs := take(out)
	commit(t, s, out, p, t2)
	envs = append(envs, take(out)...)

	acks := ofKind(envs, wire.KindPutDataResp)
	if len(acks) != 1 {
		t.Fatalf("got %d writer acks, want exactly 1 (deduplicated)", len(acks))
	}
	// t1's round is still in flight, so t2 waits in the queue.
	if got := len(ofKind(envs, wire.KindWriteCodeElemBatch)); got != 0 {
		t.Fatalf("second commit sent %d batches while a round is in flight, want 0", got)
	}
	if got := s.OffloadQueueDepth(); got != 2 {
		t.Errorf("offload depth = %d, want 2 (one in flight, one queued)", got)
	}
	// Committing t2 prunes t1's entry outright (t1 < tc).
	if _, ok := s.list[t1]; ok {
		t.Error("superseded entry not pruned on commit")
	}
	if s.CommittedTag() != t2 {
		t.Errorf("tc = %v, want %v", s.CommittedTag(), t2)
	}
	// Acking t1's round releases t2's batch.
	ackRound(s, out, round1)
	round2 := take(out)
	elems := batchElems(round2)
	if len(ofKind(round2, wire.KindWriteCodeElemBatch)) != p.N2 || len(elems) != p.N2 {
		t.Fatalf("completing round 1 sent %d elements in %d batches, want %d batches of 1",
			len(elems), len(ofKind(round2, wire.KindWriteCodeElemBatch)), p.N2)
	}
	if elems[0].Tag != t2 {
		t.Errorf("second round carries %v, want %v", elems[0].Tag, t2)
	}
}

func TestL1CommitCountBeforePutDataStillAcks(t *testing.T) {
	// All f1+k broadcasts may arrive before the PUT-DATA itself under
	// asynchrony plus the server's own broadcast echo; the ack and commit
	// must still fire when the data lands.
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	commit(t, s, out, p, tg) // counter reaches quorum; (t, *) not in L yet
	if len(ofKind(take(out), wire.KindPutDataResp)) != 0 {
		t.Fatal("ack sent before the data arrived")
	}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("late")}, out)
	envs := take(out)
	if len(ofKind(envs, wire.KindPutDataResp)) != 1 {
		t.Fatal("late put-data did not trigger the ack")
	}
	if len(ofKind(envs, wire.KindWriteCodeElemBatch)) != p.N2 {
		t.Fatal("late put-data did not trigger write-to-L2")
	}
	if s.CommittedTag() != tg {
		t.Errorf("tc = %v, want %v", s.CommittedTag(), tg)
	}
}

func TestL1WriteToL2CompletionGarbageCollects(t *testing.T) {
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("data")}, out)
	commit(t, s, out, p, tg)
	take(out)
	if s.TemporaryBytes() == 0 {
		t.Fatal("value should be in temporary storage while offloading")
	}
	// n2 - f2 acknowledgments complete the internal write.
	for i := 0; i < p.L2Quorum(); i++ {
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.AckCodeElem{Tag: tg}, out)
	}
	if s.TemporaryBytes() != 0 {
		t.Errorf("temporary bytes = %d after write-to-L2 completed, want 0", s.TemporaryBytes())
	}
	if e := s.list[tg]; e == nil {
		t.Error("tag must remain in the list as (t, bot)")
	} else if e.hasValue {
		t.Error("value must be garbage-collected")
	}
}

func TestL1StrayAckCodeElemIgnored(t *testing.T) {
	s, out, p := newTestServer(t)
	for i := 0; i < p.N2; i++ {
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.AckCodeElem{Tag: tag.Tag{Z: 9, W: 9}}, out)
	}
	if v := s.Violations(); v != 0 {
		t.Errorf("stray acks caused %d violations", v)
	}
}

func TestL1QueryDataServedFromList(t *testing.T) {
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("hot")}, out)
	commit(t, s, out, p, tg)
	take(out)

	// Requested tag present with value: served directly.
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tg}, out)
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("got %d responses", len(resps))
	}
	r := resps[0].Msg.(wire.QueryDataResp)
	if r.Class != wire.PayloadValue || string(r.Data) != "hot" || r.Tag != tg {
		t.Errorf("response = %+v", r)
	}
	if s.Bookkeeping().Readers != 0 {
		t.Error("served reader must not be registered")
	}
}

func TestL1QueryDataHigherCommittedServed(t *testing.T) {
	s, out, p := newTestServer(t)
	t2 := tag.Tag{Z: 2, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: t2, Value: []byte("newer")}, out)
	commit(t, s, out, p, t2)
	take(out)
	// Reader asks for an older tag; tc > treq and (tc, vc) in list.
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Tag{Z: 1, W: 1}}, out)
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("got %d responses", len(resps))
	}
	if r := resps[0].Msg.(wire.QueryDataResp); r.Tag != t2 || r.Class != wire.PayloadValue {
		t.Errorf("response = %+v, want committed pair", r)
	}
}

func TestL1QueryDataRegistersAndRegenerates(t *testing.T) {
	s, out, p := newTestServer(t)
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	envs := take(out)
	queries := ofKind(envs, wire.KindQueryCodeElem)
	if len(queries) != p.N2 {
		t.Fatalf("sent %d helper queries, want all n2 = %d", len(queries), p.N2)
	}
	if q := queries[0].Msg.(wire.QueryCodeElem); q.Reader != reader1 || q.OpID != 7 {
		t.Errorf("query = %+v", q)
	}
	if s.Bookkeeping().Readers != 1 {
		t.Error("reader must be registered in Gamma")
	}
}

func TestL1RegenerationSuccessAndBotPaths(t *testing.T) {
	s, out, p := newTestServer(t)
	code := s.code
	value := []byte("regenerate me")
	tg := tag.Tag{Z: 3, W: 1}
	shards, err := code.Encode(erasePad(code, value))
	if err != nil {
		t.Fatal(err)
	}
	_ = shards

	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	take(out)

	// Answer with L2Quorum helper responses carrying a common tag.
	for i := 0; i < p.L2Quorum(); i++ {
		shard, err := encodeNode(code, value, p.L2CodeIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		h, err := code.Helper(shard, p.L2CodeIndex(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.SendHelperElem{Reader: reader1, OpID: 7, Tag: tg, Helper: h, ValueLen: int32(len(value))}, out)
	}
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("got %d responses after quorum of helpers", len(resps))
	}
	r := resps[0].Msg.(wire.QueryDataResp)
	if r.Class != wire.PayloadCoded || r.Tag != tg {
		t.Fatalf("response = %+v, want coded element for %v", r, tg)
	}
	want, err := encodeNode(code, value, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != string(want) {
		t.Error("regenerated coded element differs from direct encoding")
	}
	// The reader stays registered after a regeneration response.
	if s.Bookkeeping().Readers != 1 {
		t.Error("reader must remain registered after regeneration")
	}
}

func TestL1RegenerationNoCommonTagSendsBot(t *testing.T) {
	s, out, p := newTestServer(t)
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	take(out)
	// Four responses with four different tags: no tag reaches d = 3.
	for i := 0; i < p.L2Quorum(); i++ {
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.SendHelperElem{Reader: reader1, OpID: 7, Tag: tag.Tag{Z: uint64(i + 1), W: 1}, Helper: []byte{1}, ValueLen: 1}, out)
	}
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 || resps[0].Msg.(wire.QueryDataResp).Class != wire.PayloadNone {
		t.Fatalf("want a single (bot, bot) response, got %v", resps)
	}
	if s.Bookkeeping().Readers != 1 {
		t.Error("reader must remain registered after failed regeneration")
	}
}

func TestL1RegenerationStaleOpIgnored(t *testing.T) {
	s, out, p := newTestServer(t)
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	take(out)
	// Helpers for a previous operation id must not be counted.
	for i := 0; i < p.L2Quorum(); i++ {
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)}, wire.SendHelperElem{Reader: reader1, OpID: 6, Tag: tag.Zero, Helper: []byte{1}, ValueLen: 0}, out)
	}
	if resps := ofKind(take(out), wire.KindQueryDataResp); len(resps) != 0 {
		t.Fatalf("stale helpers produced %d responses", len(resps))
	}
}

func TestL1CommitServesRegisteredReaders(t *testing.T) {
	s, out, p := newTestServer(t)
	// Register a reader waiting for anything >= t0.
	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	take(out)
	// A write commits: the registered reader gets the value directly.
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("served")}, out)
	commit(t, s, out, p, tg)
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("registered reader got %d responses", len(resps))
	}
	r := resps[0].Msg.(wire.QueryDataResp)
	if r.Class != wire.PayloadValue || string(r.Data) != "served" || r.OpID != 7 {
		t.Errorf("response = %+v", r)
	}
	if s.Bookkeeping().Readers != 0 {
		t.Error("served reader must be unregistered")
	}
}

func TestL1PutTagWithValueCommitsAndOffloads(t *testing.T) {
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	// Value in list but not yet committed (no broadcasts consumed).
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("wb")}, out)
	take(out)
	s.Step(reader1, wire.PutTag{OpID: 8, Tag: tg}, out)
	envs := take(out)
	if len(ofKind(envs, wire.KindPutTagResp)) != 1 {
		t.Fatal("put-tag not acknowledged")
	}
	if len(ofKind(envs, wire.KindWriteCodeElemBatch)) != p.N2 {
		t.Error("put-tag with value in list must initiate write-to-L2")
	}
	// Broadcasts for tg are ignored from now on, so the writer ack is
	// discharged here.
	if len(ofKind(envs, wire.KindPutDataResp)) != 1 {
		t.Error("put-tag commit must acknowledge the pending writer")
	}
	if s.CommittedTag() != tg {
		t.Errorf("tc = %v, want %v", s.CommittedTag(), tg)
	}
}

func TestL1PutTagWithoutValueAddsBotEntry(t *testing.T) {
	s, out, _ := newTestServer(t)
	tg := tag.Tag{Z: 5, W: 2}
	s.Step(reader1, wire.PutTag{OpID: 8, Tag: tg}, out)
	envs := take(out)
	if len(ofKind(envs, wire.KindPutTagResp)) != 1 {
		t.Fatal("put-tag not acknowledged")
	}
	if len(ofKind(envs, wire.KindWriteCodeElemBatch)) != 0 {
		t.Error("put-tag without the value must not initiate write-to-L2")
	}
	e, ok := s.list[tg]
	if !ok || e.hasValue {
		t.Error("(t, bot) entry missing after put-tag for unseen tag")
	}
	if s.CommittedTag() != tg {
		t.Errorf("tc = %v, want %v", s.CommittedTag(), tg)
	}
}

func TestL1PutTagServesOtherReadersFromTBar(t *testing.T) {
	// The else-branch of put-tag-resp: tc advances past the stored value,
	// and a registered reader with a small request is served the highest
	// remaining value below tc (t-bar) before garbage collection.
	s, out, p := newTestServer(t)
	t1 := tag.Tag{Z: 1, W: 1}
	// The reader registers first (t1 not yet in the list), then the value
	// arrives without being committed.
	reader2 := wire.ProcID{Role: wire.RoleReader, Index: 2}
	s.Step(reader2, wire.QueryData{OpID: 3, Req: t1}, out)
	take(out)
	s.Step(writer1, wire.PutData{OpID: 1, Tag: t1, Value: []byte("tbar")}, out)
	take(out)
	// Another reader writes back a higher tag the server has no value for.
	t9 := tag.Tag{Z: 9, W: 3}
	s.Step(reader1, wire.PutTag{OpID: 8, Tag: t9}, out)
	envs := take(out)
	resps := ofKind(envs, wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("t-bar service produced %d responses, want 1", len(resps))
	}
	r := resps[0].Msg.(wire.QueryDataResp)
	if r.Tag != t1 || string(r.Data) != "tbar" || r.OpID != 3 {
		t.Errorf("t-bar response = %+v", r)
	}
	// And t1's entry was pruned outright afterwards (t1 < tc = t9).
	if _, ok := s.list[t1]; ok {
		t.Error("t-bar entry must be pruned after serving")
	}
	// Its writer had never been acknowledged; supersession discharges that.
	if len(ofKind(envs, wire.KindPutDataResp)) != 1 {
		t.Error("pruning an unacknowledged value must acknowledge its writer")
	}
	_ = p
}

func TestL1ViolationsStayZeroAcrossActions(t *testing.T) {
	s, out, p := newTestServer(t)
	tg := tag.Tag{Z: 1, W: 1}
	s.Step(writer1, wire.PutData{OpID: 1, Tag: tg, Value: []byte("v")}, out)
	commit(t, s, out, p, tg)
	s.Step(reader1, wire.QueryData{OpID: 2, Req: tg}, out)
	s.Step(reader1, wire.PutTag{OpID: 3, Tag: tg}, out)
	take(out)
	if v := s.Violations(); v != 0 {
		t.Errorf("violations = %d", v)
	}
}

// encodeNode uses the optional single-node encoder all production codes
// implement.
func encodeNode(code erasure.Regenerating, value []byte, node int) ([]byte, error) {
	return code.(interface {
		EncodeNode([]byte, int) ([]byte, error)
	}).EncodeNode(value, node)
}

// erasePad returns the value unchanged; encoding pads internally. Kept as
// a helper to make the test's intent explicit.
func erasePad(_ erasure.Regenerating, v []byte) []byte { return v }

// TestL1RegenerationDuplicatedHelperNotDoubleCounted pins the dedup rule
// of regenerate-from-L2 under the model's duplicating channels: a helper
// delivered twice must not count twice toward the n2-f2 completion quorum
// (which would complete the collection early, fail regeneration for want
// of d distinct helpers, and drop the genuine stragglers as stale — a
// permanent (bot, bot) that costs the read its liveness), nor appear
// twice in the helper set handed to Regenerate.
func TestL1RegenerationDuplicatedHelperNotDoubleCounted(t *testing.T) {
	s, out, p := newTestServer(t)
	code := s.code
	value := []byte("regenerate me")
	tg := tag.Tag{Z: 3, W: 1}

	s.Step(reader1, wire.QueryData{OpID: 7, Req: tag.Zero}, out)
	take(out)

	helper := func(i int) {
		t.Helper()
		shard, err := encodeNode(code, value, p.L2CodeIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		h, err := code.Helper(shard, p.L2CodeIndex(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(wire.ProcID{Role: wire.RoleL2, Index: int32(i)},
			wire.SendHelperElem{Reader: reader1, OpID: 7, Tag: tg, Helper: h, ValueLen: int32(len(value))}, out)
	}

	// Server 0's helper arrives twice (duplicated delivery), then servers
	// 1 and 2: only three DISTINCT responders — under the L2Quorum()=4
	// completion rule the collection must still be open.
	helper(0)
	helper(0)
	helper(1)
	helper(2)
	if resps := ofKind(take(out), wire.KindQueryDataResp); len(resps) != 0 {
		t.Fatalf("responded after 3 distinct + 1 duplicated helper: %v (duplicate counted toward quorum)", resps)
	}

	// The fourth distinct responder completes the quorum; regeneration
	// must succeed with the duplicate discarded.
	helper(3)
	resps := ofKind(take(out), wire.KindQueryDataResp)
	if len(resps) != 1 {
		t.Fatalf("got %d responses after the quorum completed, want 1", len(resps))
	}
	r := resps[0].Msg.(wire.QueryDataResp)
	if r.Class != wire.PayloadCoded || r.Tag != tg {
		t.Fatalf("response = %+v, want the regenerated coded element at %v", r, tg)
	}
	want, err := encodeNode(code, value, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != string(want) {
		t.Error("regenerated coded element differs from direct encoding (duplicate helper fed to Regenerate?)")
	}
}
