package tcpnet

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// This file is the transport's fault coverage: peer restarts, dead peers,
// torn frames and dial hangs — the failure modes the remote gateway
// (internal/gateway's TCP shards) depends on the transport absorbing.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestReconnectAfterPeerRestart kills the receiving network and boots a
// replacement on the same port; the sender must re-establish the
// connection and deliver fresh frames to the successor.
func TestReconnectAfterPeerRestart(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idB := wire.ProcID{Role: wire.RoleL1, Index: 1}
	book := AddressBook{}
	hostA, err := NewNetwork("127.0.0.1:0", Options{Book: book, RedialBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hostA.Close()
	hostB, err := New("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	addrB := hostB.Addr()
	book[idA] = hostA.Addr()
	book[idB] = addrB

	got := make(chan wire.Envelope, 16)
	a, err := hostA.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.Register(idB, func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}

	if err := a.Send(idB, wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-restart delivery failed")
	}

	// "Restart" B: tear it down completely, then bind a new network to the
	// very same port, as a restarted process would.
	if err := hostB.Close(); err != nil {
		t.Fatal(err)
	}
	hostB2, err := New(addrB, book)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	defer hostB2.Close()
	got2 := make(chan wire.Envelope, 16)
	if _, err := hostB2.Register(idB, func(env wire.Envelope) { got2 <- env }); err != nil {
		t.Fatal(err)
	}

	// The sender's first writes may land on the dead connection (dropped)
	// until the redial path kicks in; retry until one arrives.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no delivery to the restarted peer")
		}
		if err := a.Send(idB, wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		select {
		case <-got2:
			if hostA.Redials()+hostA.Dropped() == 0 {
				t.Error("restart recovery left no redial/drop trace")
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestDeadPeerDoesNotBlockSend sends three queues' worth of envelopes at
// an address nobody listens on: every Send must return promptly (the
// sender drops and counts instead of blocking), each envelope is counted
// exactly once however the sender cut its bursts, and Close must reap the
// sender goroutine without hanging.
func TestDeadPeerDoesNotBlockSend(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idDead := wire.ProcID{Role: wire.RoleL1, Index: 1}

	// Reserve a port, then free it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	host, err := New("127.0.0.1:0", AddressBook{idDead: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	a, err := host.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}

	const sends = 3 * sendQueue
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range sends {
			// Errors are not expected: unreachable peers are crash-model
			// drops, not Send failures.
			if err := a.Send(idDead, wire.CommitTag{Tag: tag.Tag{Z: uint64(i), W: 1}}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sends to a dead peer blocked")
	}
	if !host.Drain(5 * time.Second) {
		t.Fatal("the dead peer's queue did not drain")
	}
	if got := host.Dropped(); got != sends {
		t.Errorf("Dropped() = %d after %d sends to a dead peer, want every envelope counted once", got, sends)
	}
	closed := make(chan error, 1)
	go func() { closed <- host.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with a dead-peer sender outstanding")
	}
}

// TestDialTimeoutHonorsClose starts a dial that cannot complete quickly (a
// listener whose accept queue is saturated) and closes the network: Close
// must cancel the in-flight dial and return promptly rather than wait out
// the full dial timeout.
func TestDialTimeoutHonorsClose(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idSlow := wire.ProcID{Role: wire.RoleL1, Index: 1}

	// A listener that never accepts, with its SYN backlog pre-filled so
	// later connection attempts hang in the handshake. Backlog sizes vary
	// across kernels; even if the dial happens to complete, the test still
	// verifies that Close returns promptly with the sender outstanding.
	ln, err := net.Listen("tcp", "127.0.0.1:1")
	if err != nil {
		// Port 1 is normally unbindable without privileges; fall back to a
		// normal listener we simply never accept from.
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	defer ln.Close()
	for i := 0; i < 512; i++ {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 50*time.Millisecond)
		if err != nil {
			break // backlog saturated (or filtered): the state we want
		}
		defer c.Close()
	}

	host, err := NewNetwork("127.0.0.1:0", Options{
		Book:        AddressBook{idSlow: ln.Addr().String()},
		DialTimeout: 30 * time.Second, // must NOT be what bounds Close
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := host.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(idSlow, wire.CommitTag{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the sender enter its dial

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- host.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an in-flight dial")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v, dial context not honored", d)
	}
}

// TestUnknownKindSkipsFrameKeepsConnection sends, in one burst, a valid
// frame, a whole, well-framed message whose kind byte this binary does not
// know (a newer peer in a mixed-version fleet) and another valid frame on
// the SAME connection: the unknown frame is dropped, both valid frames are
// delivered in order and the connection survives to carry more —
// resetting the connection would punish every flow sharing it.
func TestUnknownKindSkipsFrameKeepsConnection(t *testing.T) {
	host, got := receiver(t, 4)
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := append(putFrame(1, []byte("before unknown")), unknownKindFrame(putFrame(2, nil))...)
	burst = append(burst, putFrame(3, []byte("after unknown"))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("before unknown"))
	expectPut(t, got, []byte("after unknown"))

	if _, err := conn.Write(putFrame(4, []byte("same connection"))); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("same connection"))
	if n := host.inbound(); n != 1 {
		t.Errorf("%d inbound connections, want the one that carried the unknown frame", n)
	}
}

// TestTornFrameDropsOnlyThatConnection feeds the listener whole frames
// followed, in the same write, by a frame that ends mid-body, and then an
// oversized length prefix on another connection: the frames ahead of the
// tear are delivered, the torn and the oversized connections are discarded
// without wedging the network, and a bystander connection opened before
// them keeps delivering.
func TestTornFrameDropsOnlyThatConnection(t *testing.T) {
	host, got := receiver(t, 4)
	bystander, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	if _, err := bystander.Write(putFrame(1, []byte("bystander up"))); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("bystander up"))

	// A frame torn mid-body, behind two whole ones in the same buffer: the
	// length prefix promises more than arrives before the peer hangs up.
	torn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := putFrame(4, []byte("torn frame"))
	burst := append(putFrame(2, []byte("ahead 1")), putFrame(3, []byte("ahead 2"))...)
	if _, err := torn.Write(append(burst, frame[:len(frame)-3]...)); err != nil {
		t.Fatal(err)
	}
	torn.Close()
	expectPut(t, got, []byte("ahead 1"))
	expectPut(t, got, []byte("ahead 2"))

	// An oversized length prefix must also be rejected without allocation.
	huge, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameSize+1)
	huge.Write(hdr[:])
	huge.Close()

	select {
	case env := <-got:
		t.Fatalf("torn frame was delivered: %#v", env.Msg)
	case <-time.After(100 * time.Millisecond):
	}
	if !waitFor(t, 5*time.Second, func() bool { return host.inbound() == 1 }) {
		t.Fatalf("%d inbound connections, want only the bystander", host.inbound())
	}

	// The network is still healthy: the bystander and a new connection
	// both deliver whole frames.
	if _, err := bystander.Write(putFrame(5, []byte("bystander still up"))); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("bystander still up"))
	ok, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if _, err := ok.Write(putFrame(6, []byte("whole frame"))); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("whole frame"))
}

// TestResolverRoutesUnbookedIDs exercises the dynamic resolver: ids absent
// from the static book route via the resolver, and unresolvable ids fail
// with ErrNoAddress.
func TestResolverRoutesUnbookedIDs(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleControl, Index: 0}
	idB := wire.ProcID{Role: wire.RoleL1, Index: 70001} // namespaced-style id
	var hostB *Network
	hostA, err := NewNetwork("127.0.0.1:0", Options{
		Resolver: func(id wire.ProcID) (string, bool) {
			if id == idB {
				return hostB.Addr(), true
			}
			return "", false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hostA.Close()
	hostB, err = New("127.0.0.1:0", AddressBook{})
	if err != nil {
		t.Fatal(err)
	}
	defer hostB.Close()

	got := make(chan wire.Envelope, 1)
	a, err := hostA.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.Register(idB, func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(idB, wire.CommitTag{Tag: tag.Tag{Z: 3, W: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("resolver-routed frame not delivered")
	}
	if err := a.Send(wire.ProcID{Role: wire.RoleL2, Index: 5}, wire.CommitTag{}); !errors.Is(err, ErrNoAddress) {
		t.Fatalf("unresolvable id: err = %v, want ErrNoAddress", err)
	}
}

// TestLocalDeliveryNeedsNoAddress verifies that locally hosted processes
// are reachable without any book or resolver entry (the gateway hosts all
// its clients this way).
func TestLocalDeliveryNeedsNoAddress(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleWriter, Index: 1}
	idB := wire.ProcID{Role: wire.RoleReader, Index: 1}
	host, err := New("127.0.0.1:0", AddressBook{})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	got := make(chan wire.Envelope, 1)
	a, err := host.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Register(idB, func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(idB, wire.PutTagResp{OpID: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("local delivery without book entry failed")
	}
}

// TestLocalFloodBetweenHandlersDoesNotDeadlock: two locally hosted
// processes that send to each other from their handlers must not be able to
// wedge one another on a full queue (a bounded per-process queue did, as
// soon as both filled).
func TestLocalFloodBetweenHandlersDoesNotDeadlock(t *testing.T) {
	const burst = 5000 // several times any plausible bounded queue
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idB := wire.ProcID{Role: wire.RoleL1, Index: 1}
	host, err := New("127.0.0.1:0", AddressBook{})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	done := make(chan struct{})
	var a, b transport.Node
	echoes := 0
	a, err = host.Register(idA, func(env wire.Envelope) {
		if env.From != idB { // the kick: flood B from inside the handler
			for i := uint64(0); i < burst; i++ {
				if err := a.Send(idB, wire.QueryTag{OpID: i}); err != nil {
					t.Errorf("a.Send: %v", err)
					return
				}
			}
			return
		}
		if echoes++; echoes == burst {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err = host.Register(idB, func(env wire.Envelope) {
		if err := b.Send(idA, env.Msg); err != nil {
			t.Errorf("b.Send: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	kick, err := host.Register(wire.ProcID{Role: wire.RoleWriter, Index: 1}, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := kick.Send(idA, wire.QueryTag{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handlers flooding each other deadlocked")
	}
}
