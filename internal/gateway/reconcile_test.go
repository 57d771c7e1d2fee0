package gateway

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// ctlTap wraps a node host's network (nodehost.Options.WrapNet). It counts
// the distinct control requests the node receives — GroupServes, and
// reconcile requests (a GroupStats carrying a code fingerprint) apart
// from gauge samples — by their seq, so a retransmit counts once. With
// otherCode set it flips the fingerprint every request carries, so the
// node sees a gateway built with another erasure code. With older set the
// node answers GroupStats as a build that predates generations: every
// Gen and the Code decode as 0.
type ctlTap struct {
	transport.Network
	otherCode atomic.Bool
	older     atomic.Bool

	mu         sync.Mutex
	serves     map[uint64]bool
	reconciles map[uint64]bool
}

func (c *ctlTap) Register(id wire.ProcID, h transport.Handler) (transport.Node, error) {
	if id.Role != wire.RoleControl {
		return c.Network.Register(id, h)
	}
	node, err := c.Network.Register(id, func(env wire.Envelope) {
		c.mu.Lock()
		switch m := env.Msg.(type) {
		case wire.GroupServe:
			c.serves[m.Seq] = true
			if c.otherCode.Load() {
				m.Code ^= 1
				env.Msg = m
			}
		case wire.GroupStats:
			if m.Code != 0 {
				c.reconciles[m.Seq] = true
				if c.otherCode.Load() {
					m.Code ^= 1
					env.Msg = m
				}
			}
		}
		c.mu.Unlock()
		h(env)
	})
	if err != nil {
		return nil, err
	}
	return tappedNode{node, c}, nil
}

// tappedNode is a node host's control endpoint behind a ctlTap.
type tappedNode struct {
	transport.Node
	tap *ctlTap
}

func (n tappedNode) Send(to wire.ProcID, msg wire.Message) error {
	if st, ok := msg.(wire.GroupStatsResp); ok && n.tap.older.Load() {
		old := wire.GroupStatsResp{Seq: st.Seq}
		for _, g := range st.Groups {
			g.Gen = 0
			old.Groups = append(old.Groups, g)
		}
		msg = old
	}
	return n.Node.Send(to, msg)
}

// counts returns the GroupServes and reconcile requests received since
// the last call.
func (c *ctlTap) counts() (serves, reconciles int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	serves, reconciles = len(c.serves), len(c.reconciles)
	c.serves, c.reconciles = make(map[uint64]bool), make(map[uint64]bool)
	return serves, reconciles
}

// startTappedHost boots a node host with the given id on listen behind a
// fresh ctlTap.
func startTappedHost(t *testing.T, listen string, id int32) (*nodehost.Host, *ctlTap) {
	t.Helper()
	tap := &ctlTap{serves: make(map[uint64]bool), reconciles: make(map[uint64]bool)}
	h, err := nodehost.New(listen, id, nodehost.Options{WrapNet: func(n transport.Network) transport.Network {
		tap.Network = n
		return tap
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, tap
}

// tappedFleet boots n tapped node hosts with ids 1..n and a two-shard tcp
// configuration over all of them on a catalog in a fresh directory.
func tappedFleet(t *testing.T, n int) ([]*nodehost.Host, []*ctlTap, Config) {
	t.Helper()
	hosts := make([]*nodehost.Host, n)
	taps := make([]*ctlTap, n)
	specs := make([]NodeSpec, n)
	for i := range hosts {
		hosts[i], taps[i] = startTappedHost(t, "127.0.0.1:0", int32(i+1))
		specs[i] = NodeSpec{ID: hosts[i].NodeID(), Addr: hosts[i].Addr()}
	}
	return hosts, taps, Config{
		Params:  testParams(t, 3, 4, 1, 1),
		Catalog: openCatalog(t, t.TempDir()),
		Topology: &Topology{Shards: []ShardSpec{
			{Backend: BackendTCP, Nodes: specs},
			{Backend: BackendTCP, Nodes: specs},
		}},
	}
}

// putKeys writes n keys and returns their values by key.
func putKeys(t *testing.T, ctx context.Context, g *Gateway, n int) map[string]string {
	t.Helper()
	values := make(map[string]string, n)
	for i := range n {
		key := fmt.Sprintf("reconcile-%d", i)
		values[key] = key + "/v"
		if _, err := g.Put(ctx, key, []byte(values[key])); err != nil {
			t.Fatalf("Put %q: %v", key, err)
		}
	}
	return values
}

// TestReconcileMessageCounts pins the per-node reconcile's message counts.
// A gateway restarting on its catalog against a fleet that holds every
// group sends each node one reconcile request and no GroupServe. After
// one node restarts empty, ReprovisionRemote sends that node one
// GroupServe per group it hosts, and the other nodes none.
func TestReconcileMessageCounts(t *testing.T) {
	hosts, taps, cfg := tappedFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	values := putKeys(t, ctx, g1, keys)
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tap := range taps {
		tap.counts()
	}

	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if info := g2.RestoreInfo(); info == nil || info.AdoptedGroups != keys || len(info.AdoptErrors) != 0 {
		t.Fatalf("RestoreInfo = %+v, want %d adopted groups and no errors", info, keys)
	}
	for i, tap := range taps {
		if serves, reconciles := tap.counts(); serves != 0 || reconciles != 1 {
			t.Errorf("restart sent node %d %d GroupServes and %d reconcile requests, want 0 and 1", i+1, serves, reconciles)
		}
	}

	// Node 3 restarts empty on its address.
	addr := hosts[2].Addr()
	if err := hosts[2].Close(); err != nil {
		t.Fatal(err)
	}
	reborn, tap3 := startTappedHost(t, addr, 3)
	taps[2] = tap3
	if err := g2.ReprovisionRemote(ctx); err != nil {
		t.Fatalf("ReprovisionRemote: %v", err)
	}
	for i, tap := range taps {
		want := 0
		if i == 2 {
			want = keys // every group spans all three nodes
		}
		if serves, reconciles := tap.counts(); serves != want || reconciles != 1 {
			t.Errorf("reprovision sent node %d %d GroupServes and %d reconcile requests, want %d and 1", i+1, serves, reconciles, want)
		}
	}
	if got := reborn.Groups(); got != keys {
		t.Errorf("restarted node hosts %d groups after reprovisioning, want %d", got, keys)
	}
	for key, want := range values {
		if v, _, err := g2.Get(ctx, key); err != nil || string(v) != want {
			t.Errorf("Get %q = (%q, %v), want %q", key, v, err, want)
		}
	}
}

// TestReconcileOlderNodes: nodes of a build that predates generations
// answer the reconcile without them, which reads as generation 0, never
// minted. The restarted gateway re-serves each node every group it hosts
// at the persisted generation, which keeps the servers and their state,
// and reports no error: the node-first upgrade order keeps working.
func TestReconcileOlderNodes(t *testing.T) {
	_, taps, cfg := tappedFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	values := putKeys(t, ctx, g1, keys)
	for key := range values {
		values[key] += "/second"
		if _, err := g1.Put(ctx, key, []byte(values[key])); err != nil {
			t.Fatal(err)
		}
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tap := range taps {
		tap.older.Store(true)
		tap.counts()
	}

	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if info := g2.RestoreInfo(); info == nil || info.AdoptedGroups != keys || len(info.AdoptErrors) != 0 {
		t.Fatalf("RestoreInfo = %+v, want %d adopted groups and no errors", info, keys)
	}
	for i, tap := range taps {
		if serves, reconciles := tap.counts(); serves != keys || reconciles != 1 {
			t.Errorf("restart sent older node %d %d GroupServes and %d reconcile requests, want %d and 1", i+1, serves, reconciles, keys)
		}
	}
	for key, want := range values {
		if v, _, err := g2.Get(ctx, key); err != nil || string(v) != want {
			t.Errorf("Get %q = (%q, %v), want %q (state kept by the same-generation serve)", key, v, err, want)
		}
	}
}

// TestReconcileNodeOnNewAddress: with the gateway down, one node restarts
// empty on a new port and the topology says so. The restarted gateway
// reaches it by id at its new address, re-serves it, and teaches the
// other nodes where it lives now: every key reads back, and puts still
// complete with another node closed, which needs the two remaining nodes
// to reach each other.
//
// The puts go to keys written before the restart, whose L1 servers on the
// other nodes heard the old incarnations' COMMIT-TAG broadcasts. The
// reborn servers number theirs from 1 again, under a later incarnation;
// were it not for the incarnation, those peers would drop them as
// duplicates, and with one node closed the puts would stall.
func TestReconcileNodeOnNewAddress(t *testing.T) {
	hosts, _, cfg := tappedFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	values := putKeys(t, ctx, g1, 4)
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}

	if err := hosts[2].Close(); err != nil {
		t.Fatal(err)
	}
	moved, _ := startTappedHost(t, "127.0.0.1:0", 3)
	specs := []NodeSpec{
		{ID: 1, Addr: hosts[0].Addr()},
		{ID: 2, Addr: hosts[1].Addr()},
		{ID: 3, Addr: moved.Addr()},
	}
	cfg.Topology = &Topology{Shards: []ShardSpec{
		{Backend: BackendTCP, Nodes: specs},
		{Backend: BackendTCP, Nodes: specs},
	}}
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	groups := len(values)
	if info := g2.RestoreInfo(); info == nil || info.AdoptedGroups != groups || len(info.AdoptErrors) != 0 {
		t.Fatalf("RestoreInfo = %+v, want %d adopted groups and no errors", info, groups)
	}
	if got := moved.Groups(); got != groups {
		t.Fatalf("moved node hosts %d groups, want %d", got, groups)
	}
	for key, want := range values {
		if v, _, err := g2.Get(ctx, key); err != nil || string(v) != want {
			t.Fatalf("Get %q = (%q, %v), want %q", key, v, err, want)
		}
	}

	// Node 2 holds L1/1 and L2/1 of every group: one of each, within the
	// (f1, f2) = (1, 1) budget. A put now needs L1/0 on node 1 and L1/2 on
	// the moved node 3 to exchange their commit broadcasts.
	if err := hosts[1].Close(); err != nil {
		t.Fatal(err)
	}
	for key := range values {
		pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := g2.Put(pctx, key, []byte("after"))
		pcancel()
		if err != nil {
			t.Fatalf("Put %q with node 2 closed: %v", key, err)
		}
	}
}
