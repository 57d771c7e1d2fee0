package experiments

// Multi-gateway fleet experiment, beyond the paper: the layered protocol
// pins every shard's client pool to one gateway process, so a single
// front door eventually saturates on CPU it spends in erasure coding and
// socket framing rather than on anything the protocol requires. The fleet
// tentpole splits the shards between gateways by lease; this experiment
// measures what that buys — the same node fleet, the same keyspace and
// the same total client load, behind one fleet member and then behind
// two. Clients keep both members' handles in rotation, exactly as a
// load-balanced deployment would, so the two-member column honestly pays
// for the operations that arrive at a non-owner and take the peer-forward
// hop.

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
)

// MultiGatewayResult compares aggregate throughput through one fleet
// member against two members splitting the same shards.
type MultiGatewayResult struct {
	Keys    int            `json:"keys"`
	Clients int            `json:"clients"`
	Single  GatewayProfile `json:"single"`
	Dual    GatewayProfile `json:"dual"`
	// Note records the measurement environment caveats (core count).
	Note string `json:"note,omitempty"`
}

// Speedup is the dual/single aggregate ops/s ratio.
func (r *MultiGatewayResult) Speedup() float64 {
	if r.Single.OpsPerSec == 0 {
		return 0
	}
	return r.Dual.OpsPerSec / r.Single.OpsPerSec
}

// MeasureMultiGateway profiles the identical workload (clients client
// pairs, opsPerClient ops each, keys keys of valueSize bytes) through a
// fleet of one gateway and then through a fleet of two on the same
// loopback node processes. Both phases run in fleet mode — catalog,
// lease store, renew loop — so member count is the only variable.
func MeasureMultiGateway(p lds.Params, valueSize, keys, clients, opsPerClient, nodes int) (*MultiGatewayResult, error) {
	res := &MultiGatewayResult{Keys: keys, Clients: clients}
	hosts, err := startNodes(nodes)
	if err != nil {
		return nil, err
	}
	defer hosts.close()
	if res.Single, err = profileFleet(hosts, p, 1, valueSize, keys, clients, opsPerClient); err != nil {
		return nil, err
	}
	if res.Dual, err = profileFleet(hosts, p, 2, valueSize, keys, clients, opsPerClient); err != nil {
		return nil, err
	}
	return res, nil
}

// profileFleet boots a fleet of members gateways over hosts, drives the
// mixed load through it and tears it down again.
func profileFleet(hosts nodeHosts, p lds.Params, members, valueSize, keys, clients, opsPerClient int) (GatewayProfile, error) {
	f, err := startFleet(hosts, p, clients, members)
	if err != nil {
		return GatewayProfile{}, err
	}
	defer f.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	load, err := newMixedLoad(ctx, f.gws, valueSize, keys, clients)
	if err != nil {
		return GatewayProfile{}, err
	}
	return load.run(ctx, fmt.Sprintf("fleet-%d", members), opsPerClient)
}

// benchFleet is a booted fleet of gateways plus the resources they stand
// on; close tears everything down in dependency order.
type benchFleet struct {
	gws      []*gateway.Gateway
	catalogs []*catalog.File
	dirs     []string
}

func (f *benchFleet) close() {
	for _, g := range f.gws {
		g.Close()
	}
	for _, c := range f.catalogs {
		c.Close()
	}
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// startFleet boots members gateways (ids 1..members) over the given node
// fleet with a fresh shared lease store, and waits until every shard
// lease is held — the steady state the measurement should see.
func startFleet(hosts nodeHosts, p lds.Params, clients, members int) (*benchFleet, error) {
	f := &benchFleet{}
	tmp := func(pattern string) (string, error) {
		d, err := os.MkdirTemp("", pattern)
		if err == nil {
			f.dirs = append(f.dirs, d)
		}
		return d, err
	}
	leaseDir, err := tmp("lds-bench-leases-*")
	if err != nil {
		f.close()
		return nil, err
	}
	catDirs := make([]string, members)
	for i := range catDirs {
		if catDirs[i], err = tmp("lds-bench-catalog-*"); err != nil {
			f.close()
			return nil, err
		}
	}
	peerCatalog := func(id int32) string { return catDirs[id-1] }

	// Members bootstrap one-directionally: each learns the already-booted
	// members' peer addresses from FleetInfo and is learned back through
	// its own announcements.
	addrs := make(map[int32]string)
	for i := 0; i < members; i++ {
		id := int32(i + 1)
		store, err := catalog.OpenLeaseStore(leaseDir)
		if err != nil {
			f.close()
			return nil, err
		}
		cat, err := catalog.Open(catDirs[i])
		if err != nil {
			f.close()
			return nil, err
		}
		f.catalogs = append(f.catalogs, cat)
		var peers []gateway.PeerSpec
		for j := 0; j < members; j++ {
			if pid := int32(j + 1); pid != id {
				peers = append(peers, gateway.PeerSpec{ID: pid, Addr: addrs[pid]})
			}
		}
		g, err := gateway.New(gateway.Config{
			Params: p, PoolSize: clients, Catalog: cat, Topology: hosts.shards(2),
			Fleet: &gateway.FleetConfig{
				ID: id, Peers: peers, LeaseTTL: 30 * time.Second,
				Store: store, PeerCatalog: peerCatalog,
			},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gws = append(f.gws, g)
		info, err := g.FleetLeases()
		if err != nil {
			f.close()
			return nil, err
		}
		addrs[id] = info.Advertise
	}

	// Every shard must be leased AND the leases spread over all members
	// (up to the shard count) — a comparison where one member owns
	// everything and the rest only forward would measure the wrong thing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := f.gws[0].FleetLeases()
		if err != nil {
			f.close()
			return nil, err
		}
		held := 0
		owners := make(map[int32]bool)
		for _, l := range info.Leases {
			if l.Held {
				held++
				owners[l.Owner] = true
			}
		}
		if held == len(info.Leases) && len(owners) >= min(members, len(info.Leases)) {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet of %d never split the shards (%d/%d held by %d members)",
				members, held, len(info.Leases), len(owners))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
