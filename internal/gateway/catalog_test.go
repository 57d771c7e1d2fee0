package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/wire"
)

// recordingCatalog notes the type of every record appended through it.
type recordingCatalog struct {
	*catalog.File
	mu    sync.Mutex
	types []catalog.Type
}

func (c *recordingCatalog) Append(recs ...catalog.Record) error {
	c.mu.Lock()
	for _, r := range recs {
		c.types = append(c.types, r.Type)
	}
	c.mu.Unlock()
	return c.File.Append(recs...)
}

// take returns the types appended since the last call.
func (c *recordingCatalog) take() []catalog.Type {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.types
	c.types = nil
	return out
}

// TestCatalogRecordsPerOperation pins what each routing mutation logs now
// that namespace allocation and placement pins are derived at restore: a
// tcp key's creation appends its GroupServe and ObjectSet only, a
// migration adds the old group's GroupRetire, a group-less migration
// appends nothing, and a Resize logs its ring change, never a pin per key.
func TestCatalogRecordsPerOperation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	want := func(cat *recordingCatalog, what string, types ...catalog.Type) {
		t.Helper()
		if got := cat.take(); !slices.Equal(got, types) {
			t.Errorf("%s appended %v, want %v", what, got, types)
		}
	}

	t.Run("tcp", func(t *testing.T) {
		_, specs := startHosts(t, 3)
		cat := &recordingCatalog{File: openCatalog(t, t.TempDir())}
		g, err := New(Config{
			Params:  testParams(t, 3, 4, 1, 1),
			Catalog: cat,
			Topology: &Topology{Shards: []ShardSpec{
				{Backend: BackendTCP, Nodes: specs},
				{Backend: BackendTCP, Nodes: specs},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		cat.take() // the boot-time Ring record
		if _, err := g.Put(ctx, "rec", []byte("v")); err != nil {
			t.Fatal(err)
		}
		want(cat, "creating a tcp key", catalog.TypeGroupServe, catalog.TypeObjectSet)
		if err := g.MigrateKey(ctx, "rec", 1-g.ShardFor("rec")); err != nil {
			t.Fatal(err)
		}
		want(cat, "a migration", catalog.TypeGroupServe, catalog.TypeObjectSet, catalog.TypeGroupRetire)
		if err := g.MigrateKey(ctx, "no-group", 1-g.ShardFor("no-group")); err != nil {
			t.Fatal(err)
		}
		want(cat, "a group-less migration")
	})

	t.Run("resize", func(t *testing.T) {
		cat := &recordingCatalog{File: openCatalog(t, t.TempDir())}
		g, err := New(Config{Shards: 2, Params: testParams(t, 3, 4, 1, 1), Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		keys := testKeys(24)
		if err := g.Ensure(ctx, keys...); err != nil {
			t.Fatal(err)
		}
		cat.take()
		for _, n := range []int{3, 2} {
			before := make(map[string]int, len(keys))
			for _, key := range keys {
				before[key] = g.ShardFor(key)
			}
			if err := g.Resize(ctx, n); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, key := range keys {
				if g.ShardFor(key) != before[key] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("resize to %d moved no key", n)
			}
			rings, sets := 0, 0
			for _, typ := range cat.take() {
				switch typ {
				case catalog.TypeRing:
					rings++
				case catalog.TypeObjectSet:
					sets++
				default:
					t.Errorf("resize to %d appended a %v record", n, typ)
				}
			}
			wantRings := 1
			if n == 2 {
				wantRings = 2 // the shrink's truncation is a second ring change
			}
			if rings != wantRings || sets != moved {
				t.Errorf("resize to %d appended %d ring and %d object records, want %d and one per moved key (%d)",
					n, rings, sets, wantRings, moved)
			}
		}
	})
}

// TestCatalogRestoreDerivesAllocator: a restored gateway resumes its
// namespace allocator one past the highest bound or quarantined namespace,
// and frees exactly the unbound, unquarantined ones below it.
func TestCatalogRestoreDerivesAllocator(t *testing.T) {
	_, specs := startHosts(t, 3)
	nodes := make([]wire.NodeAddr, len(specs))
	for i, s := range specs {
		nodes[i] = wire.NodeAddr{ID: s.ID, Addr: s.Addr}
	}
	cat := openCatalog(t, t.TempDir())
	recs := []catalog.Record{{Type: catalog.TypeRing, Shards: 1}}
	for i, ns := range []int32{0, 2, 5} {
		recs = append(recs,
			catalog.Record{Type: catalog.TypeGroupServe, NS: ns, Gen: uint64(i + 1), Nodes: nodes,
				N1: 3, N2: 4, F1: 1, F2: 1},
			catalog.Record{Type: catalog.TypeObjectSet, Key: fmt.Sprintf("k%d", ns), NS: ns})
	}
	recs = append(recs, catalog.Record{Type: catalog.TypeNSQuarantine, NS: 3})
	if err := cat.Append(recs...); err != nil {
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
	if info := g.RestoreInfo(); info == nil || info.Objects != 3 {
		t.Fatalf("RestoreInfo = %+v, want 3 restored objects", info)
	}
	g.ns.mu.Lock()
	next, free := g.ns.next, slices.Sorted(slices.Values(g.ns.free))
	g.ns.mu.Unlock()
	if next != 6 || !slices.Equal(free, []int32{1, 4}) {
		t.Errorf("allocator = (next %d, free %v), want (6, [1 4])", next, free)
	}
	var got []int32
	for range 3 {
		ns, err := g.nextNamespace()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ns)
	}
	if slices.Sort(got); !slices.Equal(got, []int32{1, 4, 6}) {
		t.Errorf("next three namespaces = %v, want 1, 4 and 6", got)
	}
}

// TestCatalogLegacyFixture restores a catalog written before namespace
// allocation and placement pins were derived (testdata/legacy-catalog,
// see its README): it replays, every bound key routes where that
// version's restore put it, and no bound or quarantined namespace is
// free. The one pin without a binding is not restored.
func TestCatalogLegacyFixture(t *testing.T) {
	src := filepath.Join("testdata", "legacy-catalog")
	var routes struct {
		Bound                map[string]int `json:"bound"`
		PinnedWithoutBinding map[string]int `json:"pinned_without_binding"`
	}
	data, err := os.ReadFile(filepath.Join(src, "routes.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &routes); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"snapshot", "wal"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cat := openCatalog(t, dir)
	st := cat.State()
	if len(st.Objects) != len(routes.Bound) {
		t.Fatalf("replayed %d bindings %v, want the %d of routes.json", len(st.Objects), st.Objects, len(routes.Bound))
	}
	for key, sh := range routes.Bound {
		if o, ok := st.Objects[key]; !ok || o.Shard != sh {
			t.Errorf("replayed binding of %q = %+v (present %v), want shard %d", key, o, ok, sh)
		}
	}

	_, specs := startHosts(t, 3) // node ids 1..3, as when the fixture was written
	g, err := New(Config{
		Params:  testParams(t, 3, 4, 1, 1),
		Catalog: cat,
		Topology: &Topology{Shards: []ShardSpec{
			{Backend: BackendTCP, Nodes: specs},
			{Backend: BackendTCP, Nodes: specs},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if info := g.RestoreInfo(); info == nil || info.Objects != len(routes.Bound) || info.Dropped != 0 {
		t.Errorf("RestoreInfo = %+v, want %d restored objects and none dropped", info, len(routes.Bound))
	}
	for key, sh := range routes.Bound {
		if got := g.ShardFor(key); got != sh {
			t.Errorf("ShardFor(%q) = %d, want %d as the legacy restore routed it", key, got, sh)
		}
	}
	for key := range routes.PinnedWithoutBinding {
		g.route.mu.RLock()
		ring := g.route.ring.Shard(key)
		g.route.mu.RUnlock()
		if got := g.ShardFor(key); got != ring {
			t.Errorf("ShardFor(%q) = %d, want the ring's %d (a pin without a binding is not restored)", key, got, ring)
		}
	}
	g.ns.mu.Lock()
	free := slices.Clone(g.ns.free)
	g.ns.mu.Unlock()
	for _, ns := range free {
		for key, o := range st.Objects {
			if o.NS == ns {
				t.Errorf("namespace %d is free but binds %q", ns, key)
			}
		}
		if st.Quarantined(ns) {
			t.Errorf("namespace %d is free but quarantined", ns)
		}
	}
}

// TestCatalogFleetMemberFixture restores, as one gateway, a catalog
// written by a member of the former multi-gateway fleet
// (testdata/fleet-member-catalog, see its README). Its executed-forward
// records replay as no-ops; every bound key reads back through the shard
// its binding names; the generation floor it logged when it adopted a
// peer's shard still bounds the next minted generation; and the namespace
// a peer adopted away stays out of the allocator.
func TestCatalogFleetMemberFixture(t *testing.T) {
	src := filepath.Join("testdata", "fleet-member-catalog")
	var want struct {
		Bound       map[string]int `json:"bound"`
		GenFloor    uint64         `json:"gen_floor"`
		MaxGroupGen uint64         `json:"max_group_gen"`
		Quarantine  []int32        `json:"quarantine"`
	}
	data, err := os.ReadFile(filepath.Join(src, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"snapshot", "wal"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cat := openCatalog(t, dir)
	st := cat.State()
	if len(st.Objects) != len(want.Bound) {
		t.Fatalf("replayed %d bindings %v, want the %d of expect.json", len(st.Objects), st.Objects, len(want.Bound))
	}
	var maxGen uint64
	for _, grp := range st.Groups {
		maxGen = max(maxGen, grp.Gen)
	}
	if maxGen != want.MaxGroupGen || st.NextGen < want.GenFloor || want.GenFloor <= maxGen+1 {
		t.Fatalf("replayed NextGen %d over groups up to generation %d, want the floor %d above both",
			st.NextGen, maxGen, want.GenFloor)
	}
	if q := slices.Sorted(slices.Values(st.Quarantine)); !slices.Equal(q, want.Quarantine) {
		t.Fatalf("replayed quarantine %v, want %v", q, want.Quarantine)
	}

	// Fresh node hosts with the ids the fixture was written against, on
	// new ports: the catalog's node addresses are ignored, the topology
	// says where each id lives.
	_, specs := startHosts(t, 3)
	shards := make([]ShardSpec, 4)
	for i := range shards {
		shards[i] = ShardSpec{Backend: BackendTCP, Nodes: specs}
	}
	g, err := New(Config{
		Params:   testParams(t, 3, 4, 1, 1),
		Catalog:  cat,
		Topology: &Topology{Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if info := g.RestoreInfo(); info == nil || info.Objects != len(want.Bound) || info.Dropped != 0 {
		t.Errorf("RestoreInfo = %+v, want %d restored objects and none dropped", info, len(want.Bound))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for key, sh := range want.Bound {
		if got := g.ShardFor(key); got != sh {
			t.Errorf("ShardFor(%q) = %d, want its bound shard %d", key, got, sh)
		}
		if _, _, err := g.Get(ctx, key); err != nil {
			t.Errorf("get %q: %v", key, err)
		}
	}

	if _, err := g.Put(ctx, "after-fleet", []byte("v")); err != nil {
		t.Fatal(err)
	}
	after := cat.State()
	if gen := after.Groups[after.Objects["after-fleet"].NS].Gen; gen < want.GenFloor {
		t.Errorf("new group minted generation %d, below the floor %d", gen, want.GenFloor)
	}
	g.ns.mu.Lock()
	next, free := g.ns.next, slices.Clone(g.ns.free)
	g.ns.mu.Unlock()
	for _, q := range want.Quarantine {
		if q >= next || slices.Contains(free, q) {
			t.Errorf("quarantined namespace %d is allocatable (next %d, free list holds it: %v)",
				q, next, slices.Contains(free, q))
		}
	}
}

// TestCatalogShardBound: a shard count above maxShards is refused before
// anything is built or logged, whether it comes from the configuration,
// a Resize or the catalog's Ring record.
func TestCatalogShardBound(t *testing.T) {
	if _, err := New(Config{Shards: maxShards + 1, Params: testParams(t, 3, 4, 1, 1)}); !errors.Is(err, ErrShardCount) {
		t.Errorf("New with %d shards = %v, want ErrShardCount", maxShards+1, err)
	}

	dir := t.TempDir()
	cat := openCatalog(t, dir)
	g, err := New(Config{Shards: 2, Params: testParams(t, 3, 4, 1, 1), Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := g.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := cat.State()
	start := time.Now()
	if err := g.Resize(ctx, maxShards+1); !errors.Is(err, ErrShardCount) {
		t.Errorf("Resize(%d) = %v, want ErrShardCount", maxShards+1, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("over-bound Resize took %v, want an immediate refusal", d)
	}
	if g.Shards() != 2 || g.RingVersion() != 0 {
		t.Errorf("after the refused Resize: %d shards at ring version %d, want 2 at 0", g.Shards(), g.RingVersion())
	}
	if after := cat.State(); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused Resize changed the catalog: %+v -> %+v", before, after)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	if err := cat.Append(catalog.Record{Type: catalog.TypeRing, Version: 1, Shards: maxShards + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Shards: 2, Params: testParams(t, 3, 4, 1, 1), Catalog: cat}); !errors.Is(err, ErrShardCount) {
		t.Errorf("New from a catalog recording %d shards = %v, want ErrShardCount", maxShards+1, err)
	}
}
