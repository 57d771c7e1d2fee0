package broadcast

import (
	"math/rand/v2"
	"slices"
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

func TestNewValidation(t *testing.T) {
	peers := ids(5)
	if _, err := New(peers[0], peers, 0, 0); err == nil {
		t.Error("relayCount 0 should fail")
	}
	if _, err := New(peers[0], peers, 6, 0); err == nil {
		t.Error("relayCount > len(peers) should fail")
	}
}

func TestBroadcastSendsToRelaySetOnly(t *testing.T) {
	peers := ids(5)
	b, err := New(peers[4], peers, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}
	var out wire.Outbox
	b.Broadcast(inner, &out)
	if len(out.Msgs) != 2 {
		t.Fatalf("broadcast sent %d messages, want 2 (the relay set)", len(out.Msgs))
	}
	for i, s := range out.Msgs {
		if s.To != peers[i] {
			t.Errorf("send %d went to %v, want relay %v", i, s.To, peers[i])
		}
		bm, ok := s.Msg.(wire.Broadcast)
		if !ok {
			t.Fatalf("send %d is %T, want wire.Broadcast", i, s.Msg)
		}
		if bm.Origin != peers[4] || bm.Inner != inner {
			t.Errorf("broadcast fields: %+v", bm)
		}
	}
}

func TestRelayForwardsToAllPeersOnFirstReception(t *testing.T) {
	peers := ids(4)
	// peers[0] is in the relay set (first 2).
	b, err := New(peers[0], peers, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Broadcast{Origin: peers[3], Seq: 9, Inner: wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}}

	var out wire.Outbox
	inner, consume := b.Handle(msg, &out)
	if !consume {
		t.Fatal("first reception must be consumed")
	}
	if inner.(wire.CommitTag).Tag.Z != 2 {
		t.Error("inner message corrupted")
	}
	if len(out.Msgs) != 4 {
		t.Fatalf("relay forwarded %d messages, want all 4 peers", len(out.Msgs))
	}

	// Second copy (from the other relay): no consumption, no re-relay.
	out.Reset()
	if _, consume := b.Handle(msg, &out); consume {
		t.Error("duplicate reception must not be consumed")
	}
	if len(out.Msgs) != 0 {
		t.Errorf("duplicate reception caused %d forwards, want 0", len(out.Msgs))
	}
}

func TestNonRelayDoesNotForward(t *testing.T) {
	peers := ids(4)
	b, err := New(peers[3], peers, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Broadcast{Origin: peers[0], Seq: 1, Inner: wire.CommitTag{}}
	var out wire.Outbox
	if _, consume := b.Handle(msg, &out); !consume {
		t.Fatal("first reception must be consumed")
	}
	if len(out.Msgs) != 0 {
		t.Errorf("non-relay forwarded %d messages, want 0", len(out.Msgs))
	}
}

func TestDistinctInstancesConsumedSeparately(t *testing.T) {
	peers := ids(3)
	b, _ := New(peers[2], peers, 1, 0)
	m1 := wire.Broadcast{Origin: peers[0], Seq: 1, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	m2 := wire.Broadcast{Origin: peers[0], Seq: 2, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	m3 := wire.Broadcast{Origin: peers[1], Seq: 1, Inner: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}
	var out wire.Outbox
	for i, m := range []wire.Broadcast{m1, m2, m3} {
		if _, consume := b.Handle(m, &out); !consume {
			t.Errorf("instance %d not consumed", i)
		}
	}
	if b.SeenCount() != 3 {
		t.Errorf("SeenCount = %d, want 3", b.SeenCount())
	}
}

// runBroadcast drives n broadcasters as one synchronous system: it starts a
// broadcast at origin and delivers every queued envelope, skipping crashed
// destinations, until none is left. It returns how often each server
// consumed the instance.
func runBroadcast(t *testing.T, n, relays, origin int, crashed map[int32]bool) []int {
	t.Helper()
	peers := ids(n)
	bs := make([]*Broadcaster, n)
	for i := range bs {
		b, err := New(peers[i], peers, relays, 0)
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	consumed := make([]int, n)
	var out wire.Outbox
	bs[origin].Broadcast(wire.CommitTag{Tag: tag.Tag{Z: 5, W: 2}}, &out)
	for len(out.Msgs) > 0 {
		env := out.Msgs[0]
		out.Msgs = out.Msgs[1:]
		if crashed[env.To.Index] {
			continue
		}
		if _, ok := bs[env.To.Index].Handle(env.Msg.(wire.Broadcast), &out); ok {
			consumed[env.To.Index]++
		}
	}
	return consumed
}

func TestEveryServerConsumesExactlyOnce(t *testing.T) {
	// Simulate the full primitive synchronously over 5 servers with relay
	// set of size 2: deliver every send and count consumptions.
	for i, c := range runBroadcast(t, 5, 2, 3, nil) {
		if c != 1 {
			t.Errorf("server %d consumed %d times, want exactly 1", i, c)
		}
	}
}

func TestRelayCrashTolerance(t *testing.T) {
	// If one relay is crashed but the other alive, everyone still consumes:
	// the reason the relay set has f1+1 members.
	consumed := runBroadcast(t, 5, 2, 4, map[int32]bool{0: true}) // relay 0 dead
	for i := 1; i < len(consumed); i++ {
		if consumed[i] != 1 {
			t.Errorf("server %d consumed %d times, want 1 despite relay crash", i, consumed[i])
		}
	}
}

// TestDedupStateStaysBounded: the dedup state must not grow with the number
// of broadcasts that have passed (it used to: one map entry per instance,
// forever). Instances arriving out of order within a window are still each
// consumed exactly once, and only the window is remembered: ahead stays
// within the window, sorted, and is released once the gap closes.
func TestDedupStateStaysBounded(t *testing.T) {
	peers := ids(3)
	b, _ := New(peers[2], peers, 1, 0)
	const total, window = 10000, 8
	consumed := 0
	var out wire.Outbox
	deliver := func(seq uint64) {
		for range 2 { // every instance arrives twice (two relays)
			if _, consume := b.Handle(wire.Broadcast{Origin: peers[0], Seq: seq, Inner: wire.CommitTag{}}, &out); consume {
				consumed++
			}
		}
	}
	for base := uint64(1); base <= total; base += window {
		for seq := base + window - 1; seq >= base; seq-- { // reversed within the window
			deliver(seq)
			ahead := b.seen[0].ahead
			if len(ahead) > window {
				t.Fatalf("at seq %d the dedup state holds %d entries, want <= %d", seq, len(ahead), window)
			}
			if !slices.IsSorted(ahead) {
				t.Fatalf("at seq %d ahead is out of order: %v", seq, ahead)
			}
		}
		if ahead := b.seen[0].ahead; ahead != nil {
			t.Fatalf("after window %d closed, ahead still holds %v (cap %d), want nil", base, ahead, cap(ahead))
		}
	}
	if consumed != total || b.SeenCount() != total {
		t.Errorf("consumed %d instances, SeenCount %d, want %d each", consumed, b.SeenCount(), total)
	}
	if len(b.seen) != len(peers) {
		t.Errorf("dedup state has %d origins, want one per peer (%d)", len(b.seen), len(peers))
	}
}

// TestGapsFillInAnyOrder: a gap closed from the middle keeps what is still
// missing, and the floor jumps over everything that had overtaken it.
func TestGapsFillInAnyOrder(t *testing.T) {
	peers := ids(3)
	b, _ := New(peers[2], peers, 1, 0)
	var out wire.Outbox
	consumed := 0
	for _, seq := range []uint64{5, 3, 7, 1, 3, 2, 6, 4} { // 3 twice
		if _, ok := b.Handle(wire.Broadcast{Origin: peers[1], Seq: seq, Inner: wire.CommitTag{}}, &out); ok {
			consumed++
		}
	}
	if consumed != 7 {
		t.Errorf("consumed %d of 7 distinct instances", consumed)
	}
	if o := b.seen[1]; o.floor != 7 || o.ahead != nil {
		t.Errorf("state after 1..7 in scrambled order: floor %d, ahead %v; want 7, nil", o.floor, o.ahead)
	}
	if b.SeenCount() != 7 {
		t.Errorf("SeenCount = %d, want 7", b.SeenCount())
	}
}

// TestBadOriginIsDropped: a broadcast whose origin is not one of the L1
// peers is neither consumed nor relayed, and creates no dedup state.
func TestBadOriginIsDropped(t *testing.T) {
	peers := ids(4)
	b, _ := New(peers[0], peers, 2, 0) // a relay: it would forward a good one
	for _, origin := range []wire.ProcID{
		{Role: wire.RoleL1, Index: -1},
		{Role: wire.RoleL1, Index: 4},
		{Role: wire.RoleL1, Index: 1 << 16}, // another group's L1/0 on a shared network
		{Role: wire.RoleL2, Index: 1},
		{Role: wire.RoleWriter, Index: 0},
	} {
		var out wire.Outbox
		if _, consume := b.Handle(wire.Broadcast{Origin: origin, Seq: 1, Inner: wire.CommitTag{}}, &out); consume {
			t.Errorf("origin %v was consumed", origin)
		}
		if len(out.Msgs) != 0 {
			t.Errorf("origin %v was relayed %d times", origin, len(out.Msgs))
		}
	}
	if n := b.SeenCount(); n != 0 {
		t.Errorf("bad origins left %d instances of dedup state", n)
	}
	if len(b.seen) != len(peers) {
		t.Errorf("dedup state has %d origins, want %d", len(b.seen), len(peers))
	}
}

// TestInOrderHandleDoesNotAllocate: the steady state, every instance
// arriving in sequence, touches only the floor.
func TestInOrderHandleDoesNotAllocate(t *testing.T) {
	peers := ids(3)
	b, _ := New(peers[2], peers, 1, 0) // not a relay: no forwards to box
	var out wire.Outbox
	msg := wire.Broadcast{Origin: peers[0], Inner: wire.CommitTag{}} // Inner boxed once, as decode does
	allocs := testing.AllocsPerRun(1000, func() {
		msg.Seq++
		if _, consume := b.Handle(msg, &out); !consume {
			t.Fatalf("seq %d not consumed", msg.Seq)
		}
	})
	if allocs != 0 {
		t.Errorf("in-order Handle allocates %.1f times per call, want 0", allocs)
	}
}

// TestRebornOriginIsHeard: an origin restarted empty numbers its
// broadcasts from 1 again, under a larger incarnation. In any order of
// arrival, with every instance arriving twice, each of the reborn
// origin's instances is consumed exactly once, each of the old one's at
// most once and never after the first reborn instance, and the dedup
// state ends as one incarnation's.
func TestRebornOriginIsHeard(t *testing.T) {
	peers := ids(3)
	const per = 5
	var sent wire.Outbox
	for _, inc := range []uint64{10, 20} {
		origin, _ := New(peers[0], peers, 1, inc)
		for range per {
			origin.Broadcast(wire.CommitTag{}, &sent)
		}
	}
	var msgs []wire.Broadcast
	for _, env := range sent.Msgs {
		msgs = append(msgs, env.Msg.(wire.Broadcast), env.Msg.(wire.Broadcast))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for run := range 200 {
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		b, _ := New(peers[2], peers, 1, 0)
		var out wire.Outbox
		consumed := map[[2]uint64]int{}
		reborn := false
		for _, m := range msgs {
			_, consume := b.Handle(m, &out)
			if consume {
				consumed[[2]uint64{m.Incarnation, m.Seq}]++
				if reborn && m.Incarnation == 10 {
					t.Fatalf("run %d: old instance %d consumed after the reborn origin was heard", run, m.Seq)
				}
			}
			reborn = reborn || m.Incarnation == 20
			if len(b.seen[0].ahead) >= per {
				t.Fatalf("run %d: ahead holds %v", run, b.seen[0].ahead)
			}
		}
		for seq := uint64(1); seq <= per; seq++ {
			if n := consumed[[2]uint64{20, seq}]; n != 1 {
				t.Errorf("run %d: reborn instance %d consumed %d times, want 1", run, seq, n)
			}
			if n := consumed[[2]uint64{10, seq}]; n > 1 {
				t.Errorf("run %d: old instance %d consumed %d times", run, seq, n)
			}
		}
		if o := b.seen[0]; o.inc != 20 || o.floor != per || o.ahead != nil {
			t.Errorf("run %d: state ends at incarnation %d, floor %d, ahead %v; want 20, %d, nil", run, o.inc, o.floor, o.ahead, per)
		}
	}
}
