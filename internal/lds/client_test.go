package lds

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/wire"
)

func TestNewWriterValidation(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	if _, err := NewWriteOp(p, 0, 0); err == nil {
		t.Error("writer id 0 accepted")
	}
	if _, err := NewWriteOp(p, -3, 0); err == nil {
		t.Error("negative writer id accepted")
	}
	w, err := NewWriteOp(p, 7, 0)
	if err != nil {
		t.Fatalf("NewWriteOp: %v", err)
	}
	if w.wid != 7 {
		t.Errorf("writer id = %d", w.wid)
	}
	bad := Params{N1: 3, N2: 5, F1: 1, F2: 1, K: 2, D: 3}
	if _, err := NewWriteOp(bad, 1, 0); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNewReaderValidation(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReadOp(p, 0, code, 0); err == nil {
		t.Error("reader id 0 accepted")
	}
	if _, err := NewReadOp(p, 1, nil, 0); err == nil {
		t.Error("nil code accepted")
	}
	net := channet.New(channet.Options{})
	defer net.Close()
	r, err := RegisterReader(net, p, 2, code)
	if err != nil {
		t.Fatalf("RegisterReader: %v", err)
	}
	if r.ID() != (wire.ProcID{Role: wire.RoleReader, Index: 2}) {
		t.Errorf("reader id = %v", r.ID())
	}
}

// TestWriteOnClosedNetworkFails: a client whose first sends cannot leave
// fails at once with the network's error rather than waiting for ctx.
func TestWriteOnClosedNetworkFails(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	net := channet.New(channet.Options{})
	w, err := RegisterWriter(net, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if _, err := w.Write(context.Background(), []byte("x")); !errors.Is(err, channet.ErrClosed) {
		t.Errorf("Write on a closed network: %v, want ErrClosed", err)
	}
}

func TestReadOnClosedNetworkFails(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	code, _ := p.NewCode()
	net := channet.New(channet.Options{})
	r, err := RegisterReader(net, p, 1, code)
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if _, _, err := r.Read(context.Background()); !errors.Is(err, channet.ErrClosed) {
		t.Errorf("Read on a closed network: %v, want ErrClosed", err)
	}
}

func TestOperationsRespectContextCancellation(t *testing.T) {
	// Clients whose L1 servers never answer must abort when their context
	// expires rather than hang.
	p := MustTestParams(t, 4, 5, 1, 1)
	code, _ := p.NewCode()
	net := channet.New(channet.Options{})
	defer net.Close()
	for _, id := range p.L1IDs() {
		if _, err := net.Register(id, func(wire.Envelope) {}); err != nil {
			t.Fatal(err)
		}
	}

	w, err := RegisterWriter(net, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := w.Write(ctx, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Write with dead servers: %v, want DeadlineExceeded", err)
	}

	r, err := RegisterReader(net, p, 1, code)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, _, err := r.Read(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Read with dead servers: %v, want DeadlineExceeded", err)
	}
}

// TestReusedReaderIDIsServed: a reader registered under the id of an earlier
// one, as a restarted gateway does, must be served by L1 servers that still
// hold the earlier reader's get-data registration (Gamma) under a high op id.
func TestReusedReaderIDIsServed(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1)
	code, _ := p.NewCode()
	stale := opSeq() + 3 // a get-data op id of the earlier reader
	net := channet.New(channet.Options{})
	defer net.Close()
	var l1 []*L1Proc
	for i := 0; i < p.N1; i++ {
		s, err := RegisterL1(net, p, i, code, tag.Zero)
		if err != nil {
			t.Fatal(err)
		}
		l1 = append(l1, s)
	}
	for i := 0; i < p.N2; i++ {
		if _, err := RegisterL2(net, p, i, code, nil, tag.Zero); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w, err := RegisterWriter(net, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The earlier reader's get-data asked for a tag no write reaches, so no
	// commit ever serves it, and it died before its put-tag.
	rid := wire.ProcID{Role: wire.RoleReader, Index: 1}
	earlier, err := net.Register(rid, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range l1 {
		if err := earlier.Send(s.ID(), wire.QueryData{OpID: stale, Req: tag.Tag{Z: 1 << 30, W: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	earlier.Close()
	for _, s := range l1 {
		if n := s.Bookkeeping().Readers; n != 1 {
			t.Fatalf("%v registers %d readers, want the earlier one", s.ID(), n)
		}
	}
	r, err := RegisterReader(net, p, rid.Index, code)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := r.Read(ctx)
	if err != nil || string(v) != "v" {
		t.Fatalf("Read = %q, %v, want %q", v, err, "v")
	}
}

// TestOpsIgnoreAnswersOutsideTheirPhase drives a WriteOp by hand: answers
// to another op id, duplicates and a put-data ack for another tag never
// count toward a quorum, and a done op ignores everything.
func TestOpsIgnoreAnswersOutsideTheirPhase(t *testing.T) {
	p := MustTestParams(t, 4, 5, 1, 1) // quorum f1+k = 3
	w, err := NewWriteOp(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out wire.Outbox
	l1 := p.L1IDs()
	w.Start([]byte("v"), &out)
	q := take(&out)
	if len(q) != p.N1 || w.Phase() != "get-tag" {
		t.Fatalf("Start queued %d messages in phase %s, want %d in get-tag", len(q), w.Phase(), p.N1)
	}
	id := q[0].Msg.(wire.QueryTag).OpID
	w.Step(l1[0], wire.QueryTagResp{OpID: id + 1, Tag: tag.Tag{Z: 9, W: 9}}, &out) // another op
	w.Step(l1[0], wire.QueryTagResp{OpID: id, Tag: tag.Tag{Z: 2, W: 3}}, &out)
	w.Step(l1[0], wire.QueryTagResp{OpID: id, Tag: tag.Tag{Z: 2, W: 3}}, &out) // duplicate
	w.Step(l1[1], wire.QueryTagResp{OpID: id}, &out)
	if len(out.Msgs) != 0 {
		t.Fatalf("put-data sent after %d distinct answers", 2)
	}
	w.Step(l1[2], wire.QueryTagResp{OpID: id}, &out)
	puts := take(&out)
	want := tag.Tag{Z: 3, W: 1}
	if len(puts) != p.N1 || puts[0].Msg.(wire.PutData).Tag != want {
		t.Fatalf("put-data = %v, want %d messages at %v", puts, p.N1, want)
	}
	w.Step(l1[0], wire.PutDataResp{Tag: tag.Tag{Z: 3, W: 2}}, &out) // another write
	w.Step(l1[0], wire.PutDataResp{Tag: want}, &out)
	w.Step(l1[0], wire.PutDataResp{Tag: want}, &out)
	w.Step(l1[1], wire.PutDataResp{Tag: want}, &out)
	if w.Done() {
		t.Fatal("done after two distinct acks")
	}
	w.Step(l1[3], wire.PutDataResp{Tag: want}, &out)
	if !w.Done() || w.Tag() != want {
		t.Fatalf("done=%v tag=%v, want done at %v", w.Done(), w.Tag(), want)
	}
	w.Step(l1[2], wire.QueryTagResp{OpID: id}, &out)
	if len(out.Msgs) != 0 || w.Phase() != "done" {
		t.Errorf("a done op acted on a late answer: %v, phase %s", out.Msgs, w.Phase())
	}
}
