package channet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

var (
	idA = wire.ProcID{Role: wire.RoleL1, Index: 0}
	idB = wire.ProcID{Role: wire.RoleL1, Index: 1}
	idC = wire.ProcID{Role: wire.RoleL2, Index: 0}
)

// collector is a handler that records delivered envelopes.
type collector struct {
	mu   sync.Mutex
	envs []wire.Envelope
	ch   chan wire.Envelope
}

func newCollector() *collector {
	return &collector{ch: make(chan wire.Envelope, 1024)}
}

func (c *collector) handle(env wire.Envelope) {
	c.mu.Lock()
	c.envs = append(c.envs, env)
	c.mu.Unlock()
	select {
	case c.ch <- env:
	default:
		// Tests that read ch never send more than its capacity; counting
		// tests only use count(), so dropping here cannot lose a message a
		// test is waiting for -- and it must never block the delivery loop.
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.envs)
}

func testMsg(z uint64) wire.Message { return wire.CommitTag{Tag: tag.Tag{Z: z, W: 1}} }

func TestDeliverZeroLatency(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	col := newCollector()
	a, err := net.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(idB, col.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(idB, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-col.ch:
		if env.From != idA || env.To != idB {
			t.Errorf("envelope addressing: %v -> %v", env.From, env.To)
		}
		if env.Msg.(wire.CommitTag).Tag.Z != 1 {
			t.Errorf("payload mismatch")
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	if _, err := net.Register(idA, func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(idA, func(wire.Envelope) {}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register: err = %v, want ErrDuplicate", err)
	}
}

func TestRegisterNilHandler(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	if _, err := net.Register(idA, nil); err == nil {
		t.Error("nil handler should be rejected")
	}
}

func TestSendUnknownDestination(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	if err := a.Send(idC, testMsg(1)); !errors.Is(err, ErrUnknown) {
		t.Errorf("send to unknown: err = %v, want ErrUnknown", err)
	}
}

func TestLatencyClassesRespected(t *testing.T) {
	// tau2 (L1<->L2) is configured 20x tau0 (L1<->L1); a message on each
	// link class must arrive in the configured order.
	net := New(Options{Latency: transport.LatencyModel{
		Tau0: 2 * time.Millisecond,
		Tau1: 2 * time.Millisecond,
		Tau2: 40 * time.Millisecond,
	}})
	defer net.Close()
	var order []string
	var mu sync.Mutex
	done := make(chan struct{}, 2)
	record := func(name string) transport.Handler {
		return func(wire.Envelope) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			done <- struct{}{}
		}
	}
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, record("l1"))
	net.Register(idC, record("l2"))

	start := time.Now()
	a.Send(idC, testMsg(1)) // slow link, sent first
	a.Send(idB, testMsg(2)) // fast link, sent second
	<-done
	<-done
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	if order[0] != "l1" || order[1] != "l2" {
		t.Errorf("delivery order = %v, want [l1 l2]", order)
	}
	if elapsed < 40*time.Millisecond {
		t.Errorf("tau2 delivery took %v, want >= 40ms", elapsed)
	}
}

func TestJitterStaysBelowBound(t *testing.T) {
	const bound = 5 * time.Millisecond
	net := New(Options{Latency: transport.LatencyModel{
		Tau0: bound, Tau1: bound, Tau2: bound, Jitter: 0.9,
	}, Seed: 42})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, col.handle)

	start := time.Now()
	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := a.Send(idB, testMsg(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		<-col.ch
	}
	// All messages sent at once; with delay <= bound, total elapsed must be
	// about one bound, not msgs * bound. Allow generous scheduling slack.
	if elapsed := time.Since(start); elapsed > 10*bound {
		t.Errorf("jittered delivery took %v, want <= %v", elapsed, 10*bound)
	}
}

func TestCrashStopsDeliveryAndSends(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, col.handle)

	net.Crash(idB)
	a.Send(idB, testMsg(1))
	if err := net.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if col.count() != 0 {
		t.Error("crashed process consumed a message")
	}

	// Sends from a crashed process vanish silently.
	net.Crash(idA)
	if err := a.Send(idB, testMsg(2)); err != nil {
		t.Errorf("send from crashed process: err = %v, want nil (silent drop)", err)
	}
	if err := net.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if col.count() != 0 {
		t.Error("message from crashed process was delivered")
	}
}

func TestReliableDeliveryAfterSenderCrash(t *testing.T) {
	// The paper's link model: the sender may fail after placing the message
	// in the channel; delivery depends only on the destination.
	net := New(Options{Latency: transport.LatencyModel{
		Tau0: 20 * time.Millisecond, Tau1: 20 * time.Millisecond, Tau2: 20 * time.Millisecond,
	}})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, col.handle)

	a.Send(idB, testMsg(1))
	net.Crash(idA) // crash while the message is still in flight
	select {
	case <-col.ch:
	case <-time.After(time.Second):
		t.Fatal("message lost when sender crashed mid-flight")
	}
}

func TestObserverSeesAllSends(t *testing.T) {
	var seen atomic.Int64
	var payload atomic.Int64
	net := New(Options{Observer: func(env wire.Envelope) {
		seen.Add(1)
		_, n := wire.Sizes(env.Msg)
		payload.Add(int64(n))
	}})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, col.handle)

	a.Send(idB, wire.PutData{OpID: 1, Tag: tag.Tag{Z: 1, W: 1}, Value: make([]byte, 100)})
	a.Send(idB, testMsg(2))
	<-col.ch
	<-col.ch
	if seen.Load() != 2 {
		t.Errorf("observer saw %d sends, want 2", seen.Load())
	}
	if payload.Load() != 100 {
		t.Errorf("observer payload total = %d, want 100", payload.Load())
	}
}

func TestWaitIdle(t *testing.T) {
	net := New(Options{Latency: transport.LatencyModel{
		Tau0: 10 * time.Millisecond, Tau1: 10 * time.Millisecond, Tau2: 10 * time.Millisecond,
	}})
	defer net.Close()
	var handled atomic.Int64
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, func(wire.Envelope) { handled.Add(1) })

	for i := 0; i < 10; i++ {
		a.Send(idB, testMsg(uint64(i)))
	}
	if err := net.WaitIdle(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 10 {
		t.Errorf("handled %d messages before idle, want 10", handled.Load())
	}
	if net.Inflight() != 0 {
		t.Errorf("Inflight = %d after WaitIdle", net.Inflight())
	}
}

func TestWaitIdleCountsHandlerChains(t *testing.T) {
	// A handler that sends another message must keep the network non-idle
	// until the chain completes.
	net := New(Options{})
	defer net.Close()
	var final atomic.Bool
	var b transport.Node
	a, _ := net.Register(idA, func(env wire.Envelope) {
		final.Store(true)
	})
	b, _ = net.Register(idB, func(env wire.Envelope) {
		time.Sleep(5 * time.Millisecond) // widen the race window
		b.Send(idA, testMsg(99))
	})
	a.Send(idB, testMsg(1))
	if err := net.WaitIdle(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !final.Load() {
		t.Error("WaitIdle returned before the handler-initiated chain completed")
	}
}

func TestCloseUnblocksAndRejects(t *testing.T) {
	net := New(Options{})
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, func(wire.Envelope) {})
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(idB, testMsg(1)); err == nil {
		t.Error("send after close should fail")
	}
	if _, err := net.Register(idC, func(wire.Envelope) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: err = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := net.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestNodeCloseStopsDelivery(t *testing.T) {
	net := New(Options{})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	b, _ := net.Register(idB, col.handle)
	b.Close()
	if err := a.Send(idB, testMsg(1)); !errors.Is(err, ErrUnknown) {
		t.Errorf("send to closed node: err = %v, want ErrUnknown", err)
	}
	if err := b.Send(idA, testMsg(1)); err == nil {
		t.Error("send from closed node should fail")
	}
}

func TestChaosDeliversEverything(t *testing.T) {
	net := New(Options{
		Latency: transport.LatencyModel{ChaosMax: 3 * time.Millisecond},
		Seed:    7,
	})
	defer net.Close()
	col := newCollector()
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, col.handle)
	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := a.Send(idB, testMsg(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if col.count() != msgs {
		t.Errorf("chaos delivered %d/%d messages", col.count(), msgs)
	}
}

func TestHandlerSequentialPerNode(t *testing.T) {
	// The actor discipline: a node's handler never runs concurrently with
	// itself.
	net := New(Options{})
	defer net.Close()
	var inHandler atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	wg.Add(50)
	a, _ := net.Register(idA, func(wire.Envelope) {})
	net.Register(idB, func(wire.Envelope) {
		cur := inHandler.Add(1)
		if cur > maxSeen.Load() {
			maxSeen.Store(cur)
		}
		time.Sleep(100 * time.Microsecond)
		inHandler.Add(-1)
		wg.Done()
	})
	for i := 0; i < 50; i++ {
		a.Send(idB, testMsg(uint64(i)))
	}
	wg.Wait()
	if maxSeen.Load() != 1 {
		t.Errorf("handler concurrency = %d, want 1", maxSeen.Load())
	}
}

func TestLatencyModelClass(t *testing.T) {
	m := transport.LatencyModel{Tau0: 1, Tau1: 2, Tau2: 3}
	tests := []struct {
		from, to wire.Role
		want     time.Duration
	}{
		{wire.RoleL1, wire.RoleL1, 1},
		{wire.RoleWriter, wire.RoleL1, 2},
		{wire.RoleL1, wire.RoleReader, 2},
		{wire.RoleL1, wire.RoleL2, 3},
		{wire.RoleL2, wire.RoleL1, 3},
		{wire.RoleWriter, wire.RoleReader, 2},
	}
	for _, tt := range tests {
		if got := m.Class(tt.from, tt.to); got != tt.want {
			t.Errorf("Class(%v, %v) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
	if !(transport.LatencyModel{}).IsZero() {
		t.Error("zero model should report IsZero")
	}
	if transport.Uniform(5).IsZero() {
		t.Error("Uniform(5) should not be zero")
	}
}
