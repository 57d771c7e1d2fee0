package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// startHosts boots n in-test node-host processes (each its own tcpnet
// listener, exactly what cmd/lds-node runs) and returns them with their
// NodeSpecs.
func startHosts(t *testing.T, n int) ([]*nodehost.Host, []NodeSpec) {
	t.Helper()
	hosts := make([]*nodehost.Host, n)
	specs := make([]NodeSpec, n)
	for i := range hosts {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		hosts[i] = h
		specs[i] = NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
	}
	return hosts, specs
}

// TestTCPShardBasic stands up one remote TCP shard over two node hosts
// next to a sim shard and checks the basics: operations round-trip over
// real sockets, stats label the backends, Ensure provisions groups on the
// nodes, and Close retires them.
func TestTCPShardBasic(t *testing.T) {
	hosts, specs := startHosts(t, 2)
	g, err := New(Config{
		Params: testParams(t, 4, 5, 1, 1),
		Topology: &Topology{
			Shards: []ShardSpec{
				{Backend: BackendTCP, Nodes: specs},
				{Backend: BackendSim},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := g.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2 (adopted from topology)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, key := range keys {
		value := fmt.Sprintf("value-%d-over-tcp", i)
		if _, err := g.Put(ctx, key, []byte(value)); err != nil {
			t.Fatalf("Put %q: %v", key, err)
		}
		got, _, err := g.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get %q: %v", key, err)
		}
		if string(got) != value {
			t.Fatalf("Get %q = %q, want %q", key, got, value)
		}
	}

	stats := g.Stats()
	if stats[0].Backend != BackendTCP || stats[1].Backend != BackendSim {
		t.Errorf("backends = %q/%q, want tcp/sim", stats[0].Backend, stats[1].Backend)
	}
	if ops := stats[0].Ops() + stats[1].Ops(); ops != 2*uint64(len(keys)) {
		t.Errorf("total ops = %d, want %d", ops, 2*len(keys))
	}
	if stats[0].Keys == 0 {
		t.Error("no key landed on the TCP shard (ring imbalance would be news)")
	}
	if hosts[0].Groups() == 0 && hosts[1].Groups() == 0 {
		t.Error("no groups provisioned on any node host")
	}
	if hosts[0].Groups() != hosts[1].Groups() {
		t.Errorf("hosts disagree on group count: %d vs %d", hosts[0].Groups(), hosts[1].Groups())
	}

	nodes, err := g.ProbeRemoteNodes(ctx)
	if err != nil {
		t.Fatalf("ProbeRemoteNodes: %v", err)
	}
	for _, n := range nodes {
		if !n.Alive {
			t.Errorf("node %d reported dead", n.ID)
		}
		if int(n.Groups) != hosts[0].Groups() {
			t.Errorf("node %d reports %d groups, hosts hold %d", n.ID, n.Groups, hosts[0].Groups())
		}
	}

	// Close retires the remote groups (best-effort but same-process here,
	// so the frames arrive unless the scheduler is actively hostile).
	g.Close()
	deadline := time.Now().Add(5 * time.Second)
	for hosts[0].Groups()+hosts[1].Groups() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := hosts[0].Groups() + hosts[1].Groups(); n > 0 {
		t.Errorf("%d groups still hosted after gateway Close", n)
	}
}

// TestMigrateAcrossBackends hands one key sim -> tcp -> sim with live
// migrations and checks the value and tag monotonicity survive the
// backend changes.
func TestMigrateAcrossBackends(t *testing.T) {
	_, specs := startHosts(t, 2)
	g, err := New(Config{
		Params: testParams(t, 4, 5, 1, 1),
		Topology: &Topology{
			Shards: []ShardSpec{
				{Backend: BackendSim},
				{Backend: BackendTCP, Nodes: specs},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "wanderer"
	tag1, err := g.Put(ctx, key, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	home := g.ShardFor(key)
	for _, to := range []int{1 - home, home} { // across and back: both directions run
		if err := g.MigrateKey(ctx, key, to); err != nil {
			t.Fatalf("migrate to %d: %v", to, err)
		}
		v, tg, err := g.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get after migrate to %d: %v", to, err)
		}
		if string(v) != "first" {
			t.Fatalf("value after migrate = %q, want %q", v, "first")
		}
		if tg.Less(tag1) {
			t.Fatalf("tag went backwards across migration: %v < %v", tg, tag1)
		}
	}
	tag2, err := g.Put(ctx, key, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if !tag1.Less(tag2) {
		t.Fatalf("post-migration write tag %v does not exceed %v", tag2, tag1)
	}
}

// TestTCPGatewayE2E is the acceptance end-to-end: a gateway fronting two
// remote TCP shard groups (three node hosts, each hosting exactly one L1
// and one L2 server per group) plus one sim shard, under concurrent
// history-recorded load, with one node restarted mid-workload and
// reprovisioned. Every per-key history must satisfy the paper's
// atomicity conditions.
func TestTCPGatewayE2E(t *testing.T) {
	const (
		keys         = 6
		opsPerClient = 8
	)
	hosts, specs := startHosts(t, 3)
	// Geometry (3,4,1,1): L1/0..2 on nodes 0,1,2; L2/0..3 on nodes
	// 0,1,2,0. Restarting hosts[2] therefore takes down exactly one L1 and
	// one L2 of every group — the paper's (f1, f2) budget, under which
	// liveness and atomicity must hold.
	g, err := New(Config{
		Params:   testParams(t, 3, 4, 1, 1),
		PoolSize: 2,
		Topology: &Topology{
			Shards: []ShardSpec{
				{Backend: BackendTCP, Nodes: specs},
				{Backend: BackendTCP, Nodes: specs},
				{Backend: BackendSim},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	recorders := make([]*history.Recorder, keys)
	keyName := func(ki int) string { return fmt.Sprintf("e2e-%d", ki) }
	for i := range recorders {
		recorders[i] = history.NewRecorder()
		// Pre-create the groups so the restart hits established clusters.
		if err := g.Ensure(ctx, keyName(i)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		failed   sync.Map
		restarts = make(chan struct{}) // closed once the restart completed
	)
	for ki := 0; ki < keys; ki++ {
		key, rec := keyName(ki), recorders[ki]
		wg.Add(2)
		go func() {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				if op == opsPerClient/2 {
					<-restarts // second half of the load runs post-restart
				}
				value := fmt.Sprintf("%s/w/%d", key, op)
				start := time.Now()
				tg, err := g.Put(ctx, key, []byte(value))
				if err != nil {
					failed.Store(key, fmt.Errorf("put %d: %w", op, err))
					return
				}
				rec.Add(history.Op{
					Kind: history.OpWrite, Client: 1,
					Start: start, End: time.Now(), Tag: tg, Value: value,
				})
			}
		}()
		go func() {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				if op == opsPerClient/2 {
					<-restarts
				}
				start := time.Now()
				v, tg, err := g.Get(ctx, key)
				if err != nil {
					failed.Store(key, fmt.Errorf("get %d: %w", op, err))
					return
				}
				rec.Add(history.Op{
					Kind: history.OpRead, Client: 2,
					Start: start, End: time.Now(), Tag: tg, Value: string(v),
				})
			}
		}()
	}

	// Mid-workload: restart the third node (close, rebind the same port,
	// reprovision). Operations in flight ride the (f1, f2) quorums.
	addr := hosts[2].Addr()
	if err := hosts[2].Close(); err != nil {
		t.Error(err)
	}
	h2, err := nodehost.New(addr, hosts[2].NodeID(), nodehost.Options{})
	if err != nil {
		t.Fatalf("restart node on %s: %v", addr, err)
	}
	t.Cleanup(func() { h2.Close() })
	if h2.Groups() != 0 {
		t.Fatalf("restarted node claims %d groups before reprovisioning", h2.Groups())
	}
	if err := g.ReprovisionRemote(ctx); err != nil {
		t.Fatalf("ReprovisionRemote: %v", err)
	}
	if h2.Groups() == 0 {
		t.Error("reprovisioning restored no groups on the restarted node")
	}
	nodes, err := g.ProbeRemoteNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !n.Alive {
			t.Errorf("node %d dead after restart+reprovision", n.ID)
		}
	}
	close(restarts)

	wg.Wait()
	failed.Range(func(k, v any) bool {
		t.Fatalf("operation on key %v failed: %v", k, v)
		return false
	})
	for ki, rec := range recorders {
		ops := rec.Ops()
		if len(ops) != 2*opsPerClient {
			t.Fatalf("key %d: recorded %d ops, want %d", ki, len(ops), 2*opsPerClient)
		}
		for _, v := range history.Verify(ops) {
			t.Errorf("key %d: %v", ki, v)
		}
		for _, v := range history.VerifyUniqueValues(ops, "") {
			t.Errorf("key %d: %v", ki, v)
		}
	}
}

// TestTCPShardRefusesNodeOfOtherBuild: a node that acknowledges a
// GroupServe without echoing the gateway's code fingerprint -- one built
// before the fingerprint existed, whose erasure code may differ -- must
// not be served: the key's creation fails and names the reason. Nor may
// a gateway restarted on its catalog adopt nodes of another code.
func TestTCPShardRefusesNodeOfOtherBuild(t *testing.T) {
	var (
		mu      sync.Mutex
		gateway string
	)
	net, err := tcpnet.NewNetwork("127.0.0.1:0", tcpnet.Options{Resolver: func(wire.ProcID) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		return gateway, gateway != ""
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var ctl transport.Node
	ctl, err = net.Register(wire.ProcID{Role: wire.RoleControl, Index: 1}, func(env wire.Envelope) {
		switch m := env.Msg.(type) {
		case wire.GroupServe:
			mu.Lock()
			gateway = m.ClientAddr
			mu.Unlock()
			ctl.Send(env.From, wire.GroupServeResp{Seq: m.Seq, Group: m.Group}) // no Code echoed
		case wire.GroupRetire:
			ctl.Send(env.From, wire.GroupRetireResp{Seq: m.Seq, Group: m.Group})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Params:   testParams(t, 3, 4, 1, 1),
		Topology: &Topology{Shards: []ShardSpec{{Backend: BackendTCP, Nodes: []NodeSpec{{ID: 1, Addr: net.Addr()}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := g.Put(ctx, "k", []byte("v")); err == nil || !strings.Contains(err.Error(), "did not confirm erasure code") {
		t.Fatalf("Put on a node that echoes no code: err = %v, want a refusal naming the erasure code", err)
	}

	// A gateway restarted with another erasure code meets a fleet that
	// holds every group at its generation. Every node answers the
	// reconcile without echoing the code, so every node is reported in
	// RestoreInfo.AdoptErrors and sent no GroupServe, and no node sends
	// the gateway a data reply: a read of a restored key gets no answer.
	t.Run("restart", func(t *testing.T) {
		_, taps, cfg := tappedFleet(t, 3)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		g1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		putKeys(t, ctx, g1, 4)
		if err := g1.Close(); err != nil {
			t.Fatal(err)
		}
		for _, tap := range taps {
			tap.otherCode.Store(true)
			tap.counts()
		}

		g2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer g2.Close()
		info := g2.RestoreInfo()
		if info == nil || info.AdoptedGroups != 0 || len(info.AdoptErrors) != len(taps) {
			t.Fatalf("RestoreInfo = %+v, want no adopted group and one error per node", info)
		}
		for i, e := range info.AdoptErrors {
			if !strings.HasPrefix(e, fmt.Sprintf("node %d:", i+1)) || !strings.Contains(e, "did not confirm erasure code") {
				t.Errorf("AdoptErrors[%d] = %q, want node %d refused for its erasure code", i, e, i+1)
			}
		}
		for i, tap := range taps {
			if serves, _ := tap.counts(); serves != 0 {
				t.Errorf("node %d was sent %d GroupServes", i+1, serves)
			}
		}
		rctx, rcancel := context.WithTimeout(ctx, time.Second)
		defer rcancel()
		if v, _, err := g2.Get(rctx, "reconcile-0"); err == nil {
			t.Fatalf("Get answered %q: a node sent data replies to a gateway of another code", v)
		}
	})
}
