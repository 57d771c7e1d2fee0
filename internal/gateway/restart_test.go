package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// startCountingHosts boots n in-test node hosts whose "serving group" log
// events are counted — the observable that distinguishes a state-keeping
// same-generation re-adoption (no new serve events) from a state-discarding
// rebuild.
func startCountingHosts(t *testing.T, n int) ([]*nodehost.Host, []NodeSpec, *atomic.Int64) {
	t.Helper()
	var serves atomic.Int64
	logf := func(format string, args ...any) {
		if len(format) >= len("nodehost %d: serving") && format[:12] == "nodehost %d:" && format[13:20] == "serving" {
			serves.Add(1)
		}
	}
	hosts := make([]*nodehost.Host, n)
	specs := make([]NodeSpec, n)
	for i := range hosts {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{Log: logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		hosts[i] = h
		specs[i] = NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
	}
	return hosts, specs, &serves
}

func openCatalog(t *testing.T, dir string) *catalog.File {
	t.Helper()
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

// TestCatalogRestartPreservesRemoteState is the tentpole's library-level
// acceptance test: a gateway writes keys onto TCP shards, restarts
// (gracefully or by abandonment) against the same catalog and node fleet,
// and the successor serves the same keyspace with the node-held protocol
// state intact — same values, same tags, and zero re-serve (rebuild)
// events on the healthy nodes.
func TestCatalogRestartPreservesRemoteState(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		name := "graceful"
		if !graceful {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			hosts, specs, serves := startCountingHosts(t, 3)
			dir := t.TempDir()
			cat := openCatalog(t, dir)
			cfg := Config{
				Params:  testParams(t, 3, 4, 1, 1),
				Catalog: cat,
				Topology: &Topology{
					Shards: []ShardSpec{
						{Backend: BackendTCP, Nodes: specs},
						{Backend: BackendTCP, Nodes: specs},
					},
				},
			}
			g1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g1.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			const keys = 4
			values := make(map[string]string, keys)
			tags := make(map[string]tag.Tag, keys)
			keyName := func(i int) string { return fmt.Sprintf("restart-%d", i) }
			for i := 0; i < keys; i++ {
				key := keyName(i)
				for round := 0; round <= i%2; round++ { // some keys get two writes
					values[key] = fmt.Sprintf("%s/v%d", key, round)
					tg, err := g1.Put(ctx, key, []byte(values[key]))
					if err != nil {
						t.Fatalf("Put %q: %v", key, err)
					}
					tags[key] = tg
				}
			}
			// Live migration between the TCP shards: its reap recycles a
			// namespace, so the restart also covers recycle-then-realloc.
			migrated := keyName(0)
			dest := 1 - g1.ShardFor(migrated)
			if err := g1.MigrateKey(ctx, migrated, dest); err != nil {
				t.Fatalf("MigrateKey: %v", err)
			}
			values[migrated] = migrated + "/after-migration"
			if tg, err := g1.Put(ctx, migrated, []byte(values[migrated])); err != nil {
				t.Fatal(err)
			} else {
				tags[migrated] = tg
			}
			if g1.FreeNamespaces() == 0 {
				t.Fatal("migration reap did not recycle a namespace")
			}
			// Re-allocate the recycled namespace before the restart.
			realloc := "realloc-key"
			values[realloc] = "realloc-value"
			if tg, err := g1.Put(ctx, realloc, []byte(values[realloc])); err != nil {
				t.Fatal(err)
			} else {
				tags[realloc] = tg
			}

			groupsBefore := hosts[0].Groups() + hosts[1].Groups() + hosts[2].Groups()
			if graceful {
				if err := g1.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				// Detach, not retire: the fleet must still host every group.
				if got := hosts[0].Groups() + hosts[1].Groups() + hosts[2].Groups(); got != groupsBefore {
					t.Fatalf("Close with catalog retired groups: %d -> %d", groupsBefore, got)
				}
				if err := cat.Close(); err != nil {
					t.Fatal(err)
				}
				cat = openCatalog(t, dir) // a fresh process would reopen from disk
				cfg.Catalog = cat
			}
			// In the crash variant g1 is simply abandoned: no Close, no
			// detach — exactly what SIGKILL leaves behind (its listener dies
			// with the process in reality; here it just goes unused).

			servesBefore := serves.Load()
			g2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart New: %v", err)
			}
			defer g2.Close()

			info := g2.RestoreInfo()
			if info == nil {
				t.Fatal("RestoreInfo = nil after restoring a populated catalog")
			}
			if info.Objects != len(values) {
				t.Errorf("restored %d objects, want %d (info: %+v)", info.Objects, len(values), info)
			}
			if len(info.AdoptErrors) != 0 {
				t.Errorf("adopt errors against a live fleet: %v", info.AdoptErrors)
			}
			if info.AdoptedGroups != len(values) {
				t.Errorf("adopted %d groups, want %d", info.AdoptedGroups, len(values))
			}
			// The migrated key's pin is derived from its ObjectSet binding.
			if got := g2.ShardFor(migrated); got != dest {
				t.Errorf("ShardFor(%q) = %d after restart, want the migration's destination %d", migrated, got, dest)
			}
			// The healthy nodes must keep their state: a matching generation
			// re-adopts without a single rebuild.
			if got := serves.Load(); got != servesBefore {
				t.Errorf("restart triggered %d node rebuild(s); matching generations must preserve state", got-servesBefore)
			}
			for key, want := range values {
				v, tg, err := g2.Get(ctx, key)
				if err != nil {
					t.Fatalf("Get %q after restart: %v", key, err)
				}
				if string(v) != want {
					t.Errorf("Get %q = %q, want %q (node-held state lost?)", key, v, want)
				}
				if tg != tags[key] {
					t.Errorf("Get %q tag = %v, want %v (boot-seed reset?)", key, tg, tags[key])
				}
			}
			// Writes continue with strictly advancing tags.
			for key := range values {
				tg, err := g2.Put(ctx, key, []byte("post-restart"))
				if err != nil {
					t.Fatalf("Put %q after restart: %v", key, err)
				}
				if !tags[key].Less(tg) {
					t.Errorf("post-restart tag %v does not advance past %v", tg, tags[key])
				}
			}

			// The remote storage gauges are live after a sync — the stats
			// satellite's end-to-end check.
			if err := g2.SyncRemoteStats(ctx); err != nil {
				t.Fatalf("SyncRemoteStats: %v", err)
			}
			var perm int64
			for _, st := range g2.Stats() {
				if st.Backend != BackendTCP {
					t.Errorf("shard %d backend = %q, want tcp", st.Shard, st.Backend)
				}
				perm += st.PermanentBytes
			}
			if perm == 0 {
				t.Error("PermanentBytes still zero after SyncRemoteStats on written tcp shards")
			}
			if perm != g2.PermanentBytes() {
				t.Errorf("Stats sum %d != Gateway.PermanentBytes %d", perm, g2.PermanentBytes())
			}
		})
	}
}

// TestCatalogRestartMidMigration synthesizes the catalog a crash between
// a migration's provisioning and its swap leaves behind: the successor
// group's incarnation is persisted (and possibly provisioned) but the key
// still binds to the old group. Restore must resume the key on the old
// group and retire the orphan.
func TestCatalogRestartMidMigration(t *testing.T) {
	hosts, specs, _ := startCountingHosts(t, 2)
	dir := t.TempDir()
	cat := openCatalog(t, dir)
	nodes := make([]wire.NodeAddr, len(specs))
	for i, s := range specs {
		nodes[i] = wire.NodeAddr{ID: s.ID, Addr: s.Addr}
	}
	const key = "mid-migration"
	if err := cat.Append(
		catalog.Record{Type: catalog.TypeRing, Version: 0, Shards: 1},
		catalog.Record{Type: catalog.TypeNSAlloc, NS: 0},
		catalog.Record{Type: catalog.TypeGroupServe, NS: 0, Gen: 1, Nodes: nodes,
			Value: []byte("committed"), Tag: tag.Tag{Z: 3, W: 1},
			N1: 3, N2: 4, F1: 1, F2: 1},
		catalog.Record{Type: catalog.TypeObjectSet, Key: key, NS: 0, Shard: 0},
		// The interrupted migration: successor provisioned, swap never
		// logged.
		catalog.Record{Type: catalog.TypeNSAlloc, NS: 1},
		catalog.Record{Type: catalog.TypeGroupServe, NS: 1, Gen: 2, Nodes: nodes,
			Value: []byte("half-moved"), Tag: tag.Tag{Z: 9, W: 1},
			N1: 3, N2: 4, F1: 1, F2: 1},
	); err != nil {
		t.Fatal(err)
	}

	g, err := New(Config{
		Params:   testParams(t, 3, 4, 1, 1),
		Catalog:  cat,
		Topology: &Topology{Shards: []ShardSpec{{Backend: BackendTCP, Nodes: specs}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	info := g.RestoreInfo()
	if info == nil || info.Objects != 1 || info.Orphans != 1 {
		t.Fatalf("RestoreInfo = %+v, want 1 object and 1 retired orphan", info)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, tg, err := g.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "committed" || tg != (tag.Tag{Z: 3, W: 1}) {
		t.Errorf("Get = (%q, %v), want the old group's state (committed, (3,1))", v, tg)
	}
	if free := g.FreeNamespaces(); free != 1 {
		t.Errorf("FreeNamespaces = %d, want 1 (the orphan's)", free)
	}
	if groups := hosts[0].Groups(); groups != 1 {
		t.Errorf("host hosts %d groups, want 1 (orphan must not be provisioned)", groups)
	}
}

// serveCheckingCatalog checks the write-ahead rule at each TypeGroupServe
// append: the group must not be served yet, so no node host holds it and
// the gateway has not registered it. Keys are created one at a time, and
// every host holds every group, so "no host holds it" reads as "each host
// holds exactly the groups served before". With fail set, those appends
// fail instead.
type serveCheckingCatalog struct {
	*catalog.File
	t      *testing.T
	hosts  []*nodehost.Host
	g      atomic.Pointer[Gateway]
	fail   bool
	served int
}

var errInjectedAppend = errors.New("injected catalog failure")

func (c *serveCheckingCatalog) Append(recs ...catalog.Record) error {
	for _, r := range recs {
		if r.Type != catalog.TypeGroupServe {
			continue
		}
		for _, h := range c.hosts {
			if n := h.Groups(); n != c.served {
				c.t.Errorf("group %d: node %d holds %d groups at the append, want the %d served before it", r.NS, h.NodeID(), n, c.served)
			}
		}
		if g := c.g.Load(); g != nil {
			g.remote.mu.Lock()
			_, registered := g.remote.groups[r.NS]
			g.remote.mu.Unlock()
			if registered {
				c.t.Errorf("group %d registered before its GroupServe record is durable", r.NS)
			}
		}
		if c.fail {
			return errInjectedAppend
		}
		c.served++
	}
	return c.File.Append(recs...)
}

// TestCatalogServeIsWriteAhead: a remote group's incarnation is durable
// before any node or the resolver learns it, and a failed append serves
// it nowhere.
func TestCatalogServeIsWriteAhead(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			hosts, specs := startHosts(t, 2)
			cat := &serveCheckingCatalog{File: openCatalog(t, t.TempDir()), t: t, hosts: hosts, fail: fail}
			g, err := New(Config{
				Params:   testParams(t, 3, 4, 1, 1),
				Catalog:  cat,
				Topology: &Topology{Shards: []ShardSpec{{Backend: BackendTCP, Nodes: specs}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			cat.g.Store(g)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			const keys = 3
			for i := range keys {
				err := g.Ensure(ctx, fmt.Sprintf("wal-%d", i))
				if fail != (err != nil) || fail && !errors.Is(err, errInjectedAppend) {
					t.Fatalf("Ensure = %v with failing appends %v", err, fail)
				}
			}
			want := keys
			if fail {
				want = 0
			}
			for _, h := range hosts {
				if n := h.Groups(); n != want {
					t.Errorf("node %d holds %d groups, want %d", h.NodeID(), n, want)
				}
			}
			g.remote.mu.Lock()
			registered := len(g.remote.groups)
			g.remote.mu.Unlock()
			if registered != want {
				t.Errorf("%d groups registered, want %d", registered, want)
			}
		})
	}
}

// TestCatalogRestartRefusesLossyConfig: a catalog holding node-held
// groups must not be restored by a configuration that cannot adopt them
// — a forgotten -topology or a changed group geometry would silently
// convert recoverable state into data loss.
func TestCatalogRestartRefusesLossyConfig(t *testing.T) {
	_, specs, _ := startCountingHosts(t, 2)
	dir := t.TempDir()
	cat := openCatalog(t, dir)
	cfg := Config{
		Params:   testParams(t, 3, 4, 1, 1),
		Catalog:  cat,
		Topology: &Topology{Shards: []ShardSpec{{Backend: BackendTCP, Nodes: specs}}},
	}
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := g1.Put(ctx, "precious", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart without the topology: must refuse, not drop the key.
	noTopo := cfg
	noTopo.Topology = nil
	noTopo.Shards = 1
	if _, err := New(noTopo); err == nil {
		t.Fatal("New without -topology restored a catalog holding node-held groups")
	}

	// Restart with a different group geometry: must refuse, not pair
	// mismatched clients with the state-keeping servers.
	wrongGeom := cfg
	wrongGeom.Params = testParams(t, 4, 5, 1, 1)
	if _, err := New(wrongGeom); err == nil {
		t.Fatal("New with changed (n1,n2,f1,f2) restored a mismatched catalog")
	}

	// The refusals must not have damaged the catalog: the original
	// configuration still restores the key.
	g2, err := New(cfg)
	if err != nil {
		t.Fatalf("original config no longer restores: %v", err)
	}
	defer g2.Close()
	v, _, err := g2.Get(ctx, "precious")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "survives" {
		t.Errorf("Get = %q after refused restores, want %q", v, "survives")
	}
}

// TestCatalogSimKeysDropAtRestart pins the documented limitation: sim
// groups live in gateway memory, so a restart drops their keys back to
// the initial value — while routing shape (ring version, shard count from
// a resize) survives.
func TestCatalogSimKeysDropAtRestart(t *testing.T) {
	dir := t.TempDir()
	cat := openCatalog(t, dir)
	cfg := Config{
		Shards:       2,
		Params:       testParams(t, 3, 4, 1, 1),
		InitialValue: []byte("v0"),
		Catalog:      cat,
	}
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := g1.Put(ctx, fmt.Sprintf("sim-%d", i), []byte("written")); err != nil {
			t.Fatal(err)
		}
	}
	if err := g1.Resize(ctx, 5); err != nil {
		t.Fatal(err)
	}
	version := g1.RingVersion()
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat = openCatalog(t, dir)
	cfg.Catalog = cat
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if got := g2.Shards(); got != 5 {
		t.Errorf("Shards() = %d, want the resized 5", got)
	}
	if got := g2.RingVersion(); got != version {
		t.Errorf("RingVersion = %d, want %d", got, version)
	}
	if info := g2.RestoreInfo(); info == nil || info.Dropped != 3 || info.Objects != 0 {
		t.Errorf("RestoreInfo = %+v, want 3 dropped sim keys", info)
	}
	// Dropped keys restart at v0; their namespaces were recycled.
	v, _, err := g2.Get(ctx, "sim-0")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v0" {
		t.Errorf("dropped sim key reads %q, want the initial value", v)
	}
	if g2.AllocatedNamespaces() < 3 {
		t.Errorf("allocator lost its high-water mark: %d", g2.AllocatedNamespaces())
	}
}

// TestClientIDWrapSkipsLiveIDs is the wraparound regression test: after
// the allocator wraps, ids still bound to live pooled clients must be
// skipped, never re-issued.
func TestClientIDWrapSkipsLiveIDs(t *testing.T) {
	m := &remoteManager{cids: make(map[int32]struct{})}
	held := make(map[int32]bool)
	for i := 0; i < 5; i++ {
		id, err := m.clientID()
		if err != nil {
			t.Fatal(err)
		}
		held[id] = true // ids 1..5 stay live across the wrap
	}
	// Fast-forward to just before the wrap point.
	m.mu.Lock()
	m.nextCID = transport.NamespaceStride - 3
	m.mu.Unlock()
	seen := make(map[int32]bool)
	for i := 0; i < 10; i++ {
		id, err := m.clientID()
		if err != nil {
			t.Fatal(err)
		}
		if held[id] {
			t.Fatalf("allocation %d re-issued live id %d after wrap", i, id)
		}
		if seen[id] {
			t.Fatalf("allocation %d re-issued id %d twice in one pass", i, id)
		}
		if id <= 0 || id >= transport.NamespaceStride {
			t.Fatalf("id %d out of the namespaced client range", id)
		}
		seen[id] = true
	}
	// Releasing makes the ids allocatable again.
	m.releaseClientIDs([]int32{1, 2})
	m.mu.Lock()
	m.nextCID = 0
	m.mu.Unlock()
	if id, err := m.clientID(); err != nil || id != 1 {
		t.Fatalf("after release, clientID() = (%d, %v), want released id 1", id, err)
	}
}

// TestClientIDExhaustion: with every id live, allocation must fail
// loudly, not hand out a duplicate.
func TestClientIDExhaustion(t *testing.T) {
	m := &remoteManager{cids: make(map[int32]struct{})}
	for i := int32(1); i < transport.NamespaceStride; i++ {
		m.cids[i] = struct{}{}
	}
	if id, err := m.clientID(); err == nil {
		t.Fatalf("clientID() = %d with a fully live id space, want error", id)
	}
}
