package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// newTestFleetConfig is the minimal valid FleetConfig for validation tests.
func newTestFleetConfig(t *testing.T, id int32) (FleetConfig, *Gateway) {
	t.Helper()
	store, err := catalog.OpenLeaseStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cat := openCatalog(t, t.TempDir())
	g := &Gateway{cfg: Config{
		Catalog: cat,
		Topology: &Topology{Shards: []ShardSpec{
			{Backend: BackendTCP, Nodes: []NodeSpec{{ID: 1, Addr: "127.0.0.1:1"}}},
		}},
	}}
	return FleetConfig{
		ID:          id,
		Store:       store,
		PeerCatalog: func(int32) string { return "" },
	}, g
}

func TestFleetConfigValidation(t *testing.T) {
	cfg, g := newTestFleetConfig(t, 1)
	if _, err := newFleet(g, cfg); err != nil {
		t.Fatalf("valid single-member config rejected: %v", err)
	}

	bad := cfg
	bad.ID = -1
	if _, err := newFleet(g, bad); err == nil {
		t.Error("negative fleet id accepted")
	}
	bad = cfg
	bad.Store = nil
	if _, err := newFleet(g, bad); err == nil {
		t.Error("nil lease store accepted")
	}
	bad = cfg
	bad.PeerCatalog = nil
	if _, err := newFleet(g, bad); err == nil {
		t.Error("nil PeerCatalog accepted")
	}
	bad = cfg
	bad.Peers = []PeerSpec{{ID: 1, Addr: "x"}}
	if _, err := newFleet(g, bad); err == nil {
		t.Error("peer id colliding with own id accepted")
	}
	bad = cfg
	bad.Peers = []PeerSpec{{ID: 2, Addr: "x"}, {ID: 2, Addr: "y"}}
	if _, err := newFleet(g, bad); err == nil {
		t.Error("duplicate peer ids accepted")
	}

	noCat := &Gateway{cfg: g.cfg}
	noCat.cfg.Catalog = nil
	if _, err := newFleet(noCat, cfg); err == nil {
		t.Error("fleet without a catalog accepted")
	}
	noTopo := &Gateway{cfg: g.cfg}
	noTopo.cfg.Topology = nil
	if _, err := newFleet(noTopo, cfg); err == nil {
		t.Error("fleet without a topology accepted")
	}
	simShard := &Gateway{cfg: g.cfg}
	simShard.cfg.Topology = &Topology{Shards: []ShardSpec{{Backend: BackendSim}}}
	if _, err := newFleet(simShard, cfg); err == nil {
		t.Error("fleet with a sim shard accepted")
	}
}

// TestFleetNamespacePartition checks that fleet members carve the namespace
// space into disjoint slices that depend only on the sorted id set, and
// that preferred boot ownership round-robins shards over the members.
func TestFleetNamespacePartition(t *testing.T) {
	cfg, g := newTestFleetConfig(t, 7)
	cfg.Peers = []PeerSpec{{ID: 3, Addr: "a"}, {ID: 11, Addr: "b"}}
	f, err := newFleet(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := int32(transport.MaxNamespaceGroups) / 3
	if f.nsLo != span || f.nsHi != 2*span {
		t.Errorf("id 7 of {3,7,11}: slice [%d,%d), want [%d,%d)", f.nsLo, f.nsHi, span, 2*span)
	}
	if r := f.rankOf(3); r != 0 {
		t.Errorf("rankOf(3) = %d, want 0", r)
	}
	if r := f.rankOf(11); r != 2 {
		t.Errorf("rankOf(11) = %d, want 2", r)
	}
	if r := f.rankOf(5); r != -1 {
		t.Errorf("rankOf(5) = %d, want -1", r)
	}
	// Shards round-robin over the sorted members.
	for s, want := range []int32{3, 7, 11, 3, 7} {
		if got := f.preferredOwner(int32(s)); got != want {
			t.Errorf("preferredOwner(%d) = %d, want %d", s, got, want)
		}
	}
}

// TestFleetRestoreNext checks the allocator derivation over a fleet
// member's slice: bindings outside [100, 200) — an adopted group at 4999, a
// quarantine at 10 — are ignored, and every in-slice use is covered.
func TestFleetRestoreNext(t *testing.T) {
	st := &catalog.State{
		Quarantine: []int32{120, 10},
		Objects:    map[string]catalog.Object{"k": {NS: 130}, "out": {NS: 4999}},
		Groups:     map[int32]catalog.Group{130: {}, 105: {}, 4999: {}},
	}
	live := map[int32]bool{130: true, 105: true, 4999: true}
	next, free := deriveNamespaces(st, 100, 200, live)
	if next != 131 {
		t.Errorf("next = %d, want 131 (one past the highest in-slice use)", next)
	}
	for _, ns := range free {
		if ns < 100 || ns >= 131 || live[ns] || ns == 120 {
			t.Errorf("free list %v holds %d: out of slice, bound or quarantined", free, ns)
		}
	}
	if len(free) != 31-3 {
		t.Errorf("free list has %d namespaces, want the 28 unused ones in [100, 131)", len(free))
	}
	if next, free := deriveNamespaces(&catalog.State{}, 100, 200, nil); next != 100 || len(free) != 0 {
		t.Errorf("empty state: next %d, free %v; want the slice floor 100 and nothing free", next, free)
	}
}

// TestPeerProcIDRoundTrip checks the id↔endpoint mapping is its own
// inverse and stays clear of node (>= 0) and gateway (-1) control indices.
func TestPeerProcIDRoundTrip(t *testing.T) {
	for _, id := range []int32{0, 1, 7, 1000} {
		p := peerProcID(id)
		if p.Role != wire.RoleControl {
			t.Fatalf("peerProcID(%d).Role = %v", id, p.Role)
		}
		if p.Index > peerCtlBase {
			t.Errorf("peerProcID(%d).Index = %d collides with node/gateway control indices", id, p.Index)
		}
		if back := peerCtlBase - p.Index; back != id {
			t.Errorf("round trip of id %d = %d", id, back)
		}
	}
}

// TestForwardDedupEviction checks the executed-forward cache stays bounded
// and never evicts an in-flight entry (whose eviction would allow a
// duplicate execution).
func TestForwardDedupEviction(t *testing.T) {
	f := &fleet{dedup: make(map[forwardKey]*forwardEntry)}
	add := func(seq uint64, done bool) {
		k := forwardKey{origin: 9, seq: seq}
		f.dedup[k] = &forwardEntry{done: done}
		f.dedupQ = append(f.dedupQ, k)
	}
	inflight := uint64(3)
	for seq := uint64(0); seq < forwardDedupCap+100; seq++ {
		add(seq, seq != inflight)
	}
	f.mu.Lock()
	f.evictForwardsLocked()
	f.mu.Unlock()
	if len(f.dedup) > forwardDedupCap {
		t.Errorf("dedup cache holds %d entries, cap %d", len(f.dedup), forwardDedupCap)
	}
	if e, ok := f.dedup[forwardKey{origin: 9, seq: inflight}]; !ok || e.done {
		t.Error("in-flight entry was evicted")
	}
	// The oldest completed entries are the ones that went.
	if _, ok := f.dedup[forwardKey{origin: 9, seq: 0}]; ok {
		t.Error("oldest completed entry survived eviction")
	}
}

// fleetHarness is two gateways fronting one node fleet through a shared
// lease store.
type fleetHarness struct {
	specs   []NodeSpec
	leaseD  string
	catDirA string
	catDirB string
	catA    *catalog.File
	catB    *catalog.File
	gwA     *Gateway
	gwB     *Gateway
}

// startFleetPair boots two fleet gateways (ids 1 and 2) over fresh
// catalogs, a shared lease-store directory and n node hosts.
func startFleetPair(t *testing.T, ttl time.Duration) *fleetHarness {
	t.Helper()
	_, specs, _ := startCountingHosts(t, 3)
	h := &fleetHarness{
		specs:   specs,
		leaseD:  t.TempDir(),
		catDirA: t.TempDir(),
		catDirB: t.TempDir(),
	}
	h.catA = openCatalog(t, h.catDirA)
	h.gwA = h.newMember(t, 1, h.catA, ttl)
	h.catB = openCatalog(t, h.catDirB)
	h.gwB = h.newMember(t, 2, h.catB, ttl)
	return h
}

func (h *fleetHarness) dirFor(id int32) string {
	if id == 1 {
		return h.catDirA
	}
	return h.catDirB
}

func (h *fleetHarness) newMember(t *testing.T, id int32, cat *catalog.File, ttl time.Duration) *Gateway {
	t.Helper()
	store, err := catalog.OpenLeaseStore(h.leaseD)
	if err != nil {
		t.Fatal(err)
	}
	peers := []PeerSpec{{ID: 3 - id}} // address learned from announcements/forwards is not enough for tcpnet: fill below
	g, err := New(Config{
		Params:  testParams(t, 3, 4, 1, 1),
		Catalog: cat,
		Topology: &Topology{Shards: []ShardSpec{
			{Backend: BackendTCP, Nodes: h.specs},
			{Backend: BackendTCP, Nodes: h.specs},
		}},
		Fleet: &FleetConfig{
			ID:          id,
			Peers:       peers,
			LeaseTTL:    ttl,
			Store:       store,
			PeerCatalog: h.dirFor,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	// Static address book: each member learns the other's listener (the
	// first member boots before the second exists, so patch both ways).
	if other := h.gwA; other != nil && other != g {
		g.fleet.mu.Lock()
		g.fleet.addrs[1] = other.remote.advertise
		g.fleet.mu.Unlock()
		other.fleet.mu.Lock()
		other.fleet.addrs[id] = g.remote.advertise
		other.fleet.mu.Unlock()
	}
	return g
}

// waitOwned polls until every shard's lease is held, returning the owner
// map, or fails the test.
func waitOwned(t *testing.T, g *Gateway, deadline time.Duration) map[int]int32 {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		info, err := g.FleetLeases()
		if err != nil {
			t.Fatal(err)
		}
		owners := make(map[int]int32)
		all := true
		for _, l := range info.Leases {
			if !l.Held {
				all = false
				break
			}
			owners[l.Shard] = l.Owner
		}
		if all {
			return owners
		}
		if time.Now().After(end) {
			t.Fatalf("shards never fully leased; last view %+v", info.Leases)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// keysPerShard finds one key routed to each shard (the key→shard map is
// identical on every member by construction).
func keysPerShard(g *Gateway) map[int]string {
	out := make(map[int]string)
	for i := 0; len(out) < g.Shards() && i < 10000; i++ {
		k := fmt.Sprintf("fleet-key-%d", i)
		if sh := g.ShardFor(k); out[sh] == "" {
			out[sh] = k
		}
	}
	return out
}

// TestTwoGatewayFleetForwardAndFailover is the library-level acceptance
// test of the tentpole: two gateways split the keyspace by lease, a
// non-owner forwards instead of erroring, and when one member dies
// (crash-style: leases left to expire, catalog flock released) the
// survivor claims its shards, adopts its catalog and serves its keys with
// values and tags intact.
func TestTwoGatewayFleetForwardAndFailover(t *testing.T) {
	const ttl = time.Second
	h := startFleetPair(t, ttl)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	owners := waitOwned(t, h.gwB, 5*time.Second)
	keys := keysPerShard(h.gwA)
	if len(keys) != 2 {
		t.Fatalf("found keys for %d shards, want 2", len(keys))
	}

	// Writes through BOTH members for every key: whichever member does not
	// hold the key's shard forwards to the one that does.
	tags := make(map[string]tag1)
	for sh, key := range keys {
		for round, g := range []*Gateway{h.gwA, h.gwB} {
			val := fmt.Sprintf("%s/v%d", key, round)
			tg, err := g.Put(ctx, key, []byte(val))
			if err != nil {
				t.Fatalf("put %q via gateway %d (shard %d owned by %d): %v", key, round+1, sh, owners[sh], err)
			}
			tags[key] = tag1{val, tg}
		}
	}
	// Reads through both members agree on the final value.
	for _, key := range keys {
		for gi, g := range []*Gateway{h.gwA, h.gwB} {
			v, tg, err := g.Get(ctx, key)
			if err != nil {
				t.Fatalf("get %q via gateway %d: %v", key, gi+1, err)
			}
			if string(v) != tags[key].val {
				t.Errorf("get %q via gateway %d = %q, want %q", key, gi+1, v, tags[key].val)
			}
			if tg.Less(tags[key].tg) {
				t.Errorf("get %q via gateway %d returned tag %v older than the last write's %v", key, gi+1, tg, tags[key].tg)
			}
		}
	}

	// Kill A the hard way: no lease release (the process "died"), then
	// release its catalog flock as process exit would.
	h.gwA.fleet.releaseOnStop = false
	if err := h.gwA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.catA.Close(); err != nil {
		t.Fatal(err)
	}

	// The survivor claims the dead member's shards within a lease term or
	// two and serves every key locally.
	end := time.Now().Add(10 * ttl)
	for {
		owners = waitOwned(t, h.gwB, 10*ttl)
		all := true
		for _, owner := range owners {
			if owner != 2 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("survivor never absorbed the dead member's shards: %v", owners)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, key := range keys {
		v, tg, err := h.gwB.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %q after failover: %v", key, err)
		}
		if string(v) != tags[key].val {
			t.Errorf("get %q after failover = %q, want %q", key, v, tags[key].val)
		}
		if tg.Less(tags[key].tg) {
			t.Errorf("get %q after failover: tag %v regressed below %v", key, tg, tags[key].tg)
		}
	}
	// Writes keep flowing on the adopted shards.
	for _, key := range keys {
		if _, err := h.gwB.Put(ctx, key, []byte(key+"/post-failover")); err != nil {
			t.Fatalf("post-failover put %q: %v", key, err)
		}
	}

	// The store's full lease history must show no overlap and no epoch
	// skip — the no-dual-ownership oracle.
	if err := h.gwB.fleet.cfg.Store.Verify(); err != nil {
		t.Errorf("lease store verification: %v", err)
	}
}

type tag1 struct {
	val string
	tg  tag.Tag
}

// TestFleetGracefulHandoff checks that a clean Close releases the member's
// leases so the survivor absorbs its shards without waiting out the TTL.
func TestFleetGracefulHandoff(t *testing.T) {
	const ttl = 30 * time.Second // deliberately long: the handoff must not wait for it
	h := startFleetPair(t, ttl)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	waitOwned(t, h.gwB, 5*time.Second)
	keys := keysPerShard(h.gwA)
	vals := make(map[string]string)
	for _, key := range keys {
		vals[key] = key + "/before-handoff"
		if _, err := h.gwA.Put(ctx, key, []byte(vals[key])); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.gwA.Close(); err != nil { // graceful: releases leases
		t.Fatal(err)
	}
	if err := h.catA.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	owners := waitOwned(t, h.gwB, 10*time.Second)
	for sh, owner := range owners {
		if owner != 2 {
			t.Fatalf("shard %d still owned by %d after graceful close", sh, owner)
		}
	}
	if took := time.Since(start); took > ttl/2 {
		t.Errorf("handoff took %v — it waited out the lease TTL instead of using the release", took)
	}
	for _, key := range keys {
		v, _, err := h.gwB.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %q after handoff: %v", key, err)
		}
		if string(v) != vals[key] {
			t.Errorf("get %q after handoff = %q, want %q", key, v, vals[key])
		}
	}
	if err := h.gwB.fleet.cfg.Store.Verify(); err != nil {
		t.Errorf("lease store verification: %v", err)
	}
}

// TestFleetStaticReshaping checks that keyspace reshaping is refused on a
// fleet member: the key→shard map must agree across the fleet.
func TestFleetStaticReshaping(t *testing.T) {
	h := startFleetPair(t, time.Second)
	ctx := context.Background()
	if err := h.gwA.Resize(ctx, 4); !errors.Is(err, ErrFleetStatic) {
		t.Errorf("Resize = %v, want ErrFleetStatic", err)
	}
	if err := h.gwA.MigrateKey(ctx, "k", 1); !errors.Is(err, ErrFleetStatic) {
		t.Errorf("MigrateKey = %v, want ErrFleetStatic", err)
	}
	if _, err := h.gwA.FleetLeases(); err != nil {
		t.Errorf("FleetLeases on a fleet member: %v", err)
	}
	single, err := New(Config{Shards: 1, Params: testParams(t, 3, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.FleetLeases(); !errors.Is(err, ErrNoFleet) {
		t.Errorf("FleetLeases without a fleet = %v, want ErrNoFleet", err)
	}
}

// TestFleetSingleMemberRestart checks the fleet-mode restart path: a fleet
// of one writes keys, closes gracefully, and a successor over the same
// catalog and lease store re-claims its own leases and re-adopts its own
// groups (no failover adoption — the state is its own).
func TestFleetSingleMemberRestart(t *testing.T) {
	_, specs, _ := startCountingHosts(t, 3)
	leaseDir, catDir := t.TempDir(), t.TempDir()
	build := func(cat *catalog.File) *Gateway {
		store, err := catalog.OpenLeaseStore(leaseDir)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Params:  testParams(t, 3, 4, 1, 1),
			Catalog: cat,
			Topology: &Topology{Shards: []ShardSpec{
				{Backend: BackendTCP, Nodes: specs},
				{Backend: BackendTCP, Nodes: specs},
			}},
			Fleet: &FleetConfig{
				ID:          1,
				LeaseTTL:    time.Second,
				Store:       store,
				PeerCatalog: func(int32) string { return "" },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cat1 := openCatalog(t, catDir)
	g1 := build(cat1)
	keys := keysPerShard(g1)
	tags := make(map[string]tag.Tag)
	for _, key := range keys {
		tg, err := g1.Put(ctx, key, []byte(key+"/v1"))
		if err != nil {
			t.Fatal(err)
		}
		tags[key] = tg
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cat1.Close(); err != nil {
		t.Fatal(err)
	}

	cat2 := openCatalog(t, catDir)
	g2 := build(cat2)
	defer g2.Close()
	waitOwned(t, g2, 5*time.Second)
	for _, key := range keys {
		v, tg, err := g2.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %q after restart: %v", key, err)
		}
		if string(v) != key+"/v1" {
			t.Errorf("get %q after restart = %q, want %q", key, v, key+"/v1")
		}
		if tg.Less(tags[key]) {
			t.Errorf("get %q after restart: tag regressed", key)
		}
	}
	// A restart mints fresh namespaces only within its slice.
	if g2.fleet.nsLo != 0 {
		t.Fatalf("single-member slice floor = %d, want 0", g2.fleet.nsLo)
	}
}
