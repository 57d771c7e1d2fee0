package transport_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/leaktest"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// TestMain fails the suite if an actor goroutine outlives its network's
// Close.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }

// The process contract both networks implement on the shared actor runtime
// (see Actors): one table, so the two cannot drift apart.
var networks = []struct {
	name string
	open func(t *testing.T) transport.Network
}{
	{"channet", func(*testing.T) transport.Network { return channet.New(channet.Options{}) }},
	{"tcpnet-loopback", func(t *testing.T) transport.Network {
		n, err := tcpnet.New("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}},
}

// eachNetwork runs f once per network, on a fresh instance closed afterwards.
func eachNetwork(t *testing.T, f func(t *testing.T, net transport.Network)) {
	for _, nc := range networks {
		t.Run(nc.name, func(t *testing.T) {
			net := nc.open(t)
			defer net.Close()
			f(t, net)
		})
	}
}

func pid(role wire.Role, group, local int32) wire.ProcID {
	return wire.ProcID{Role: role, Index: group*transport.NamespaceStride + local}
}

func register(t *testing.T, net transport.Network, id wire.ProcID, h transport.Handler) transport.Node {
	t.Helper()
	nd, err := net.Register(id, h)
	if err != nil {
		t.Fatalf("Register(%v): %v", id, err)
	}
	return nd
}

func opID(env wire.Envelope) uint64 { return env.Msg.(wire.QueryTag).OpID }

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// A gated process: its handler reports every message it is given and blocks
// on gate, so a test can hold the process's actor mid-invocation.
type gated struct {
	entered chan uint64
	gate    chan struct{}
}

func newGated() *gated {
	return &gated{entered: make(chan uint64, 1024), gate: make(chan struct{})}
}

func (g *gated) handle(env wire.Envelope) {
	g.entered <- opID(env)
	<-g.gate
}

func TestPerProcessFIFOUnderConcurrentSenders(t *testing.T) {
	eachNetwork(t, func(t *testing.T, net transport.Network) {
		const senders, msgs = 8, 500
		var (
			inHandler atomic.Int32
			next      [senders]uint64
			total     int
			done      = make(chan struct{})
		)
		dst := pid(wire.RoleL1, 0, 0)
		register(t, net, dst, func(env wire.Envelope) {
			if inHandler.Add(1) != 1 {
				t.Error("two invocations of one process's handler overlap")
			}
			defer inHandler.Add(-1)
			from := env.From.Index
			if got := opID(env); got != next[from] {
				t.Errorf("from sender %d: got message %d, want %d", from, got, next[from])
			}
			next[from]++
			if total++; total == senders*msgs {
				close(done)
			}
		})
		var wg sync.WaitGroup
		for s := int32(0); s < senders; s++ {
			nd := register(t, net, pid(wire.RoleWriter, 0, s), func(wire.Envelope) {})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < msgs; i++ {
					if err := nd.Send(dst, wire.QueryTag{OpID: i}); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		waitClosed(t, done, "all messages")
	})
}

func TestCloseWaitsForRunningHandler(t *testing.T) {
	eachNetwork(t, func(t *testing.T, net transport.Network) {
		var exited atomic.Bool
		entered := make(chan struct{})
		p := register(t, net, pid(wire.RoleL1, 0, 0), func(wire.Envelope) {
			close(entered)
			time.Sleep(50 * time.Millisecond)
			exited.Store(true)
		})
		if err := p.Send(p.ID(), wire.QueryTag{}); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, entered, "the handler to start")
		p.Close()
		if !exited.Load() {
			t.Error("Close returned while the process's handler was still running")
		}
	})
}

// TestNoInvocationAfterClose closes a flooded process from the handler of
// another process on the same actor -- the one place a Close that waited
// for "the goroutine" instead of "this process" would deadlock -- and from
// an unrelated goroutine.
func TestNoInvocationAfterClose(t *testing.T) {
	eachNetwork(t, func(t *testing.T, net transport.Network) {
		for _, fromHandler := range []bool{true, false} {
			var closed atomic.Bool
			var late atomic.Int32
			victimID := pid(wire.RoleL1, 0, 0)
			victim := register(t, net, victimID, func(wire.Envelope) {
				if closed.Load() {
					late.Add(1)
				}
			})
			closeVictim := func() {
				victim.Close()
				closed.Store(true)
			}
			returned := make(chan struct{})
			// Group 16 is group 0's class: same role and index, same actor.
			closer := register(t, net, pid(wire.RoleL1, 16, 0), func(wire.Envelope) {
				closeVictim()
				close(returned)
			})
			stop := make(chan struct{})
			var flood sync.WaitGroup
			flood.Add(1)
			go func() {
				defer flood.Done()
				for {
					select {
					case <-stop:
						return
					default:
						closer.Send(victimID, wire.QueryTag{}) // fails once the victim is gone
					}
				}
			}()
			time.Sleep(5 * time.Millisecond)
			if fromHandler {
				if err := closer.Send(closer.ID(), wire.QueryTag{}); err != nil {
					t.Fatal(err)
				}
				waitClosed(t, returned, "Close from a handler on the victim's actor")
			} else {
				closeVictim()
			}
			time.Sleep(5 * time.Millisecond) // let the actor run into what was queued
			close(stop)
			flood.Wait()
			closer.Close()
			if n := late.Load(); n != 0 {
				t.Errorf("fromHandler=%v: %d invocations after Close returned", fromHandler, n)
			}
		}
	})
}

// TestReregisterNeverSeesPredecessorsTraffic: messages queued for a closed
// process are bound to it, not to its id (what namespace recycling relies
// on); on channet they also leave the in-flight count, so WaitIdle returns.
func TestReregisterNeverSeesPredecessorsTraffic(t *testing.T) {
	eachNetwork(t, func(t *testing.T, net transport.Network) {
		const queued = 100
		id := pid(wire.RoleL2, 3, 1)
		old := newGated()
		oldNode := register(t, net, id, old.handle)
		sender := register(t, net, pid(wire.RoleWriter, 3, 1), func(wire.Envelope) {})
		for i := uint64(0); i <= queued; i++ { // message 0 holds the actor
			if err := sender.Send(id, wire.QueryTag{OpID: i}); err != nil {
				t.Fatal(err)
			}
		}
		<-old.entered
		closed := make(chan struct{})
		go func() {
			oldNode.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while the handler was blocked")
		case <-time.After(20 * time.Millisecond):
		}
		close(old.gate)
		waitClosed(t, closed, "Close")

		got := make(chan uint64, queued+2)
		register(t, net, id, func(env wire.Envelope) { got <- opID(env) })
		const fresh = 1 << 20
		if err := sender.Send(id, wire.QueryTag{OpID: fresh}); err != nil {
			t.Fatal(err)
		}
		select {
		case op := <-got:
			if op != fresh {
				t.Errorf("new incarnation received its predecessor's message %d", op)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("new incarnation never received its own message")
		}
		if n := len(old.entered); n != 0 {
			t.Errorf("closed process was invoked %d more times", n)
		}
		if idler, ok := net.(transport.Idler); ok {
			if err := idler.WaitIdle(10 * time.Second); err != nil {
				t.Errorf("after closing a process with %d queued messages: %v", queued, err)
			}
		}
	})
}

// TestProcessesAreTableEntries: what a registered process costs is an entry,
// not a goroutine, and a blocked handler holds up its own class only.
func TestProcessesAreTableEntries(t *testing.T) {
	eachNetwork(t, func(t *testing.T, net transport.Network) {
		const groups, perGroup = 625, 16 // 10,000 processes
		before := runtime.NumGoroutine()
		for g := int32(0); g < groups; g++ {
			for i := int32(0); i < perGroup; i++ {
				role := wire.RoleL1
				if i >= 6 {
					role = wire.RoleL2
				}
				register(t, net, pid(role, g, i), func(wire.Envelope) {})
			}
		}
		if added := runtime.NumGoroutine() - before; added > 600 {
			t.Errorf("%d processes added %d goroutines, want <= 600", groups*perGroup, added)
		}

		slow := newGated()
		defer close(slow.gate)
		const c = 700 // an unused group; c+1 is the next class
		a := register(t, net, pid(wire.RoleL1, c, 0), slow.handle)
		handled := make(chan struct{})
		b := register(t, net, pid(wire.RoleL1, c+1, 0), func(wire.Envelope) { close(handled) })
		if err := a.Send(a.ID(), wire.QueryTag{}); err != nil {
			t.Fatal(err)
		}
		<-slow.entered
		if err := a.Send(b.ID(), wire.QueryTag{}); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, handled, "a process in class c+1 while class c's handler is blocked")
	})
}
