package gateway

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/transport/faultnet"
	"github.com/lds-storage/lds/internal/wire"
)

// TestFleetChaosLeaseFailover drives the fleet's peer plane through a
// seeded fault injector — lease announcements and forwarded operations are
// dropped, duplicated and delayed — while concurrent clients write and
// read through both gateways, then crash-kills one member mid-test. The
// checks are the protocol's two oracles: every per-key history passes the
// paper's atomicity checker (a duplicated PeerForward that double-applied
// a put would surface as a phantom write), and the lease store's full
// record shows no overlapping ownership in any interleaving.
//
// The faults cannot cause false failover by construction — lease renewal
// is a store write, not a message; only the cache-warming announcements
// ride the lossy network — and this test is the regression guard on that
// property.
func TestFleetChaosLeaseFailover(t *testing.T) {
	const (
		ttl          = 600 * time.Millisecond
		clientsPerGW = 2
		opsPerClient = 4
		keys         = 4
	)
	chaos := faultnet.Rule{Drop: 0.15, Dup: 0.15, DelayMax: 30 * time.Millisecond}
	_, specs, _ := startCountingHosts(t, 3)
	leaseDir, catDirA, catDirB := t.TempDir(), t.TempDir(), t.TempDir()
	dirFor := func(id int32) string {
		if id == 1 {
			return catDirA
		}
		return catDirB
	}

	// One shared in-memory network carries both members' peer planes, with
	// every peer-plane kind faulted (the control plane to the node hosts
	// stays on its own healthy tcpnet — this test chaoses the new
	// protocol, not the old one).
	base := channet.New(channet.Options{})
	fnet := faultnet.New(base, faultnet.Options{
		Seed: 41,
		PerKind: map[wire.Kind]faultnet.Rule{
			wire.KindLeaseClaim:      chaos,
			wire.KindLeaseRenew:      chaos,
			wire.KindPeerForward:     chaos,
			wire.KindPeerForwardResp: chaos,
		},
	})
	t.Cleanup(func() { fnet.Close() })

	newMember := func(id int32, cat *catalog.File) *Gateway {
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
				ID:          id,
				Peers:       []PeerSpec{{ID: 3 - id}},
				LeaseTTL:    ttl,
				Store:       store,
				PeerCatalog: dirFor,
				Net:         fnet,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	catA := openCatalog(t, catDirA)
	gwA := newMember(1, catA)
	catB := openCatalog(t, catDirB)
	gwB := newMember(2, catB)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	waitOwned(t, gwB, 5*time.Second)

	// Pick keys so both shards are covered — a uniform pick could land
	// every key on the survivor's shard and phase 2 would never exercise
	// the claim-and-adopt path.
	keyNames := make([]string, 0, keys)
	for _, k := range keysPerShard(gwB) {
		keyNames = append(keyNames, k)
	}
	for i := 0; len(keyNames) < keys; i++ {
		keyNames = append(keyNames, fmt.Sprintf("chaos-%d", i))
	}
	recorders := make([]*history.Recorder, keys)
	keyName := func(i int) string { return keyNames[i] }
	for i := range recorders {
		recorders[i] = history.NewRecorder()
	}

	// runPhase drives clientsPerGW writers and readers per key through
	// each of the given gateways and waits for all of them; client ids
	// are disjoint across phases and gateways so every per-key history is
	// well-formed.
	phase := 0
	runPhase := func(gws ...*Gateway) {
		t.Helper()
		phase++
		var wg sync.WaitGroup
		var failed sync.Map
		for ki := 0; ki < keys; ki++ {
			key, rec := keyName(ki), recorders[ki]
			for gi, g := range gws {
				for c := 0; c < clientsPerGW; c++ {
					cid := int32(phase*100 + gi*10 + c)
					wg.Add(2)
					go func(g *Gateway, cid int32) {
						defer wg.Done()
						for op := 0; op < opsPerClient; op++ {
							value := fmt.Sprintf("%s/p%d/c%d/%d", key, phase, cid, op)
							start := time.Now()
							tg, err := g.Put(ctx, key, []byte(value))
							if err != nil {
								failed.Store(key, err)
								return
							}
							rec.Add(history.Op{
								Kind: history.OpWrite, Client: cid,
								Start: start, End: time.Now(), Tag: tg, Value: value,
							})
						}
					}(g, cid)
					go func(g *Gateway, cid int32) {
						defer wg.Done()
						for op := 0; op < opsPerClient; op++ {
							start := time.Now()
							v, tg, err := g.Get(ctx, key)
							if err != nil {
								failed.Store(key, err)
								return
							}
							rec.Add(history.Op{
								Kind: history.OpRead, Client: -cid,
								Start: start, End: time.Now(), Tag: tg, Value: string(v),
							})
						}
					}(g, cid)
				}
			}
		}
		wg.Wait()
		failed.Range(func(k, v any) bool {
			t.Fatalf("phase %d: operation on key %v failed: %v", phase, k, v)
			return false
		})
	}

	// Phase 1: both members alive; roughly half of all operations arrive
	// at the non-owner and take the faulted forwarding path.
	runPhase(gwA, gwB)

	// Crash member 1: leases stay (they expire), catalog flock releases as
	// process death would release it.
	gwA.fleet.releaseOnStop = false
	if err := gwA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := catA.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the survivor absorbs the dead member's shards (operations
	// on them park in the forwarder until its renew loop claims and
	// adopts) and serves the whole keyspace.
	runPhase(gwB)

	// The dead member's leases can sit inside their grace window for up to
	// a TTL after phase 2 (Held, but by a corpse), so wait for the
	// survivor to hold everything rather than for mere non-vacancy.
	allMine := time.Now().Add(10 * ttl)
	for {
		info, err := gwB.FleetLeases()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, l := range info.Leases {
			if l.Held && l.Owner == 2 {
				n++
			}
		}
		if n == len(info.Leases) {
			break
		}
		if time.Now().After(allMine) {
			t.Fatalf("survivor never absorbed all shards: %+v", info.Leases)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Oracle 1: every per-key history is atomic with unique write values.
	for ki, rec := range recorders {
		ops := rec.Ops()
		if want := 2 * opsPerClient * clientsPerGW * 3; len(ops) != want {
			t.Fatalf("key %d: recorded %d ops, want %d", ki, len(ops), want)
		}
		for _, v := range history.Verify(ops) {
			t.Errorf("key %d: %v", ki, v)
		}
		for _, v := range history.VerifyUniqueValues(ops, "") {
			t.Errorf("key %d: %v", ki, v)
		}
	}
	// Oracle 2: the lease store's record shows single ownership always.
	if err := gwB.fleet.cfg.Store.Verify(); err != nil {
		t.Errorf("lease store verification: %v", err)
	}
	st := fnet.Stats()
	t.Logf("chaos: sent=%d dropped=%d duplicated=%d delayed=%d", st.Sent, st.Dropped, st.Duplicated, st.Delayed)
}
