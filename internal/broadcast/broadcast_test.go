package broadcast

import (
	"testing"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

func ids(n int) []wire.ProcID {
	out := make([]wire.ProcID, n)
	for i := range out {
		out[i] = wire.ProcID{Role: wire.RoleL1, Index: int32(i)}
	}
	return out
}

// sentMsg records one send.
type sentMsg struct {
	to  wire.ProcID
	msg wire.Message
}

func recordingSend(log *[]sentMsg) SendFunc {
	return func(to wire.ProcID, msg wire.Message) error {
		*log = append(*log, sentMsg{to: to, msg: msg})
		return nil
	}
}

func TestNewValidation(t *testing.T) {
	peers := ids(5)
	if _, err := New(peers[0], peers, 0, func(wire.ProcID, wire.Message) error { return nil }); err == nil {
		t.Error("relayCount 0 should fail")
	}
	if _, err := New(peers[0], peers, 6, func(wire.ProcID, wire.Message) error { return nil }); err == nil {
		t.Error("relayCount > len(peers) should fail")
	}
	if _, err := New(peers[0], peers, 2, nil); err == nil {
		t.Error("nil send should fail")
	}
}

func TestBroadcastSendsToRelaySetOnly(t *testing.T) {
	peers := ids(5)
	var log []sentMsg
	b, err := New(peers[4], peers, 2, recordingSend(&log))
	if err != nil {
		t.Fatal(err)
	}
	inner := wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}
	if err := b.Broadcast(inner); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("broadcast sent %d messages, want 2 (the relay set)", len(log))
	}
	for i, s := range log {
		if s.to != peers[i] {
			t.Errorf("send %d went to %v, want relay %v", i, s.to, peers[i])
		}
		bm, ok := s.msg.(wire.Broadcast)
		if !ok {
			t.Fatalf("send %d is %T, want wire.Broadcast", i, s.msg)
		}
		if bm.Origin != peers[4] || bm.Inner != inner {
			t.Errorf("broadcast fields: %+v", bm)
		}
	}
}

func TestRelayForwardsToAllPeersOnFirstReception(t *testing.T) {
	peers := ids(4)
	var log []sentMsg
	// peers[0] is in the relay set (first 2).
	b, err := New(peers[0], peers, 2, recordingSend(&log))
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Broadcast{Origin: peers[3], Seq: 9, Inner: wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}}

	inner, consume := b.Handle(msg)
	if !consume {
		t.Fatal("first reception must be consumed")
	}
	if inner.(wire.CommitTag).Tag.Z != 2 {
		t.Error("inner message corrupted")
	}
	if len(log) != 4 {
		t.Fatalf("relay forwarded %d messages, want all 4 peers", len(log))
	}

	// Second copy (from the other relay): no consumption, no re-relay.
	log = nil
	if _, consume := b.Handle(msg); consume {
		t.Error("duplicate reception must not be consumed")
	}
	if len(log) != 0 {
		t.Errorf("duplicate reception caused %d forwards, want 0", len(log))
	}
}

func TestNonRelayDoesNotForward(t *testing.T) {
	peers := ids(4)
	var log []sentMsg
	b, err := New(peers[3], peers, 2, recordingSend(&log))
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Broadcast{Origin: peers[0], Seq: 1, Inner: wire.CommitTag{}}
	if _, consume := b.Handle(msg); !consume {
		t.Fatal("first reception must be consumed")
	}
	if len(log) != 0 {
		t.Errorf("non-relay forwarded %d messages, want 0", len(log))
	}
}

func TestDistinctInstancesConsumedSeparately(t *testing.T) {
	peers := ids(3)
	var log []sentMsg
	b, _ := New(peers[2], peers, 1, recordingSend(&log))
	m1 := wire.Broadcast{Origin: peers[0], Seq: 1, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	m2 := wire.Broadcast{Origin: peers[0], Seq: 2, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	m3 := wire.Broadcast{Origin: peers[1], Seq: 1, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	for i, m := range []wire.Broadcast{m1, m2, m3} {
		if _, consume := b.Handle(m); !consume {
			t.Errorf("instance %d not consumed", i)
		}
	}
	if b.SeenCount() != 3 {
		t.Errorf("SeenCount = %d, want 3", b.SeenCount())
	}
}

func TestEveryServerConsumesExactlyOnce(t *testing.T) {
	// Simulate the full primitive synchronously over 5 servers with relay
	// set of size 2: deliver every send immediately and count consumptions.
	const n = 5
	peers := ids(n)
	bs := make([]*Broadcaster, n)
	consumed := make([]int, n)
	var deliver func(to wire.ProcID, msg wire.Message) error
	for i := range bs {
		b, err := New(peers[i], peers, 2, func(to wire.ProcID, msg wire.Message) error {
			return deliver(to, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	deliver = func(to wire.ProcID, msg wire.Message) error {
		bm := msg.(wire.Broadcast)
		if _, ok := bs[to.Index].Handle(bm); ok {
			consumed[to.Index]++
		}
		return nil
	}
	if err := bs[3].Broadcast(wire.CommitTag{Tag: tag.Tag{Z: 5, W: 2}}); err != nil {
		t.Fatal(err)
	}
	for i, c := range consumed {
		if c != 1 {
			t.Errorf("server %d consumed %d times, want exactly 1", i, c)
		}
	}
}

func TestRelayCrashTolerance(t *testing.T) {
	// If one relay is crashed but the other alive, everyone still consumes:
	// the reason the relay set has f1+1 members.
	const n = 5
	peers := ids(n)
	crashed := map[int32]bool{0: true} // relay 0 dead
	bs := make([]*Broadcaster, n)
	consumed := make([]int, n)
	var deliver func(to wire.ProcID, msg wire.Message) error
	for i := range bs {
		b, err := New(peers[i], peers, 2, func(to wire.ProcID, msg wire.Message) error {
			return deliver(to, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	deliver = func(to wire.ProcID, msg wire.Message) error {
		if crashed[to.Index] {
			return nil
		}
		bm := msg.(wire.Broadcast)
		if _, ok := bs[to.Index].Handle(bm); ok {
			consumed[to.Index]++
		}
		return nil
	}
	if err := bs[4].Broadcast(wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if consumed[i] != 1 {
			t.Errorf("server %d consumed %d times, want 1 despite relay crash", i, consumed[i])
		}
	}
}

// TestDedupStateStaysBounded: the dedup state must not grow with the number
// of broadcasts that have passed (it used to: one map entry per instance,
// forever). Instances arriving out of order within a window are still each
// consumed exactly once, and only the window is remembered.
func TestDedupStateStaysBounded(t *testing.T) {
	peers := ids(3)
	b, _ := New(peers[2], peers, 1, func(wire.ProcID, wire.Message) error { return nil })
	const total, window = 10000, 8
	consumed := 0
	deliver := func(seq uint64) {
		for range 2 { // every instance arrives twice (two relays)
			if _, consume := b.Handle(wire.Broadcast{Origin: peers[0], Seq: seq, Inner: wire.CommitTag{}}); consume {
				consumed++
			}
		}
	}
	for base := uint64(1); base <= total; base += window {
		for seq := base + window - 1; seq >= base; seq-- { // reversed within the window
			deliver(seq)
			if held := len(b.seen[peers[0]].ahead); held > window {
				t.Fatalf("at seq %d the dedup state holds %d entries, want <= %d", seq, held, window)
			}
		}
	}
	if consumed != total || b.SeenCount() != total {
		t.Errorf("consumed %d instances, SeenCount %d, want %d each", consumed, b.SeenCount(), total)
	}
	if held := len(b.seen[peers[0]].ahead); held != 0 {
		t.Errorf("with nothing missing the dedup state still holds %d entries", held)
	}
}
