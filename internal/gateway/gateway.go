// Package gateway is the sharded multi-object front-end: one process-wide
// entry point that spreads a keyspace over many independent LDS groups and
// multiplexes any number of concurrent client operations onto them.
//
// # Architecture
//
// A Gateway owns S shards. Each shard owns the keys that consistent
// hashing (see Ring) assigns to it, and serves every key with a dedicated
// LDS group — a full L1/L2 cluster running the paper's protocol, created
// lazily on the key's first use by the shard's backend (see Topology):
//
//   - "sim" shards build groups in-process on one shared simulated
//     network (channet), sharing its latency model and cost accounting;
//   - "tcp" shards build groups whose L1/L2 servers live in remote node
//     processes (cmd/lds-node, internal/nodehost) over tcpnet,
//     provisioned through the GroupServe registration handshake; the
//     gateway hosts only the pooled clients and a control endpoint.
//
// Either way transport.Namespace gives each group a disjoint process-id
// space, so groups are isolated by construction: a group's quorums,
// broadcasts and L2 offloads never cross into another group. One front
// door mixes both backends freely.
//
//	client ──► Gateway.Get/Put(key)
//	             │  router: key → shard (ring, or its pinned placement)
//	             ▼
//	          shard s ── semaphore (backpressure), stats, backend
//	             │  key → LDS group (lazy: sim cluster, or remote
//	             ▼         servers via the provisioning handshake)
//	          object: Writer/Reader pools ──► L1 ──► L2   (paper protocol)
//
// # Pooling and backpressure
//
// LDS clients are well-formed: a Writer or Reader performs one operation
// at a time (paper, Section II-a). The gateway therefore keeps a small
// pool of clients per object and checks one out per operation; callers
// block (context-aware) when the pool is empty. A per-shard semaphore
// bounds the total operations in flight per shard, which is the
// backpressure that keeps a hot shard from monopolizing the process.
//
// # Rebalancing
//
// The key→shard map is no longer frozen at construction. MigrateKey hands
// a single key's group to another shard with an atomicity-preserving live
// migration (quiesce the key's pools, snapshot (value, tag), seed a fresh
// group from the snapshot, reap the old one — see migrate.go), and Resize
// grows or shrinks the shard count online via a versioned dual-ring drain:
// the old ring's answers are materialized as per-key placements, the new
// ring takes over lookups immediately, and the ~1/(S+1) fraction of keys
// the ring change remapped drain to their new homes one migration at a
// time. A Rebalancer (rebalance.go) plans hot-key moves from the Stats()
// snapshot.
//
// # Durable routing
//
// With a Config.Catalog the gateway logs the bindings a restart needs and
// nothing that follows from them: a key's ObjectSet (its group's
// namespace and shard, the commit point of a creation or migration), each
// remote group's GroupServe, and ring changes. Placement pins and the
// namespace allocator stay in memory; New derives them from the bindings
// (a key is pinned exactly when its binding names a shard the ring does
// not), so creating a tcp key costs two fsync'd records and a Resize one
// ring record at any key count (see catalog.go).
//
// # Capacity
//
// A live key costs table entries and protocol state, not goroutines: its
// n1+n2 servers and pooled clients are processes of the shared transport,
// which runs every registered process on a fixed set of at most 512 actor
// goroutines per network (transport.Actors) -- no stack and no channel per
// process, so goroutine count and idle memory do not grow with the key
// count (TestGoroutinesIndependentOfKeyCount, the two
// Test...PinOnlyStoredBytes).
//
// Groups are created lazily per key and live until their key is migrated
// (which reaps the old group) or the gateway closes. The shared
// transport's id space admits transport.MaxNamespaceGroups (32767)
// concurrent groups, and reaped groups return their namespace to a free
// list, so the bound applies to *live* keys rather than to every key ever
// seen — a churning keyspace with migrations or resizes in the loop runs
// indefinitely. Operations on further new keys beyond the live-group bound
// fail with a clear error while existing keys keep serving; front doors
// exposed to untrusted keyspaces should still bound the keys they admit.
//
// # Stats
//
// Put and Get count every operation through shard.observe into
// per-shard counters (ops, bytes, cumulative latency; failures count only
// toward the error counters so the load signals stay exact), and
// Stats() adds the live temporary- and permanent-storage bytes of each
// shard's groups plus its hottest keys — the inputs the rebalancer acts
// on. Remote shards' storage lives in their node processes; it is sampled
// over the control plane by SyncRemoteStats (the GroupStats RPC) into
// per-group gauges that Stats() then reads, and node-level health and
// totals come from ProbeRemoteNodes.
//
// # Fault tolerance over real networks
//
// On tcp shards the paper's crash model maps onto process reality:
// tcpnet drops traffic toward an unreachable node, so operations ride the
// (f1, f2) quorum slack while a node is down, and a restarted (empty)
// node is restored by ReprovisionRemote, whose per-node reconcile re-serves
// exactly the groups the node lost — safe as long as concurrently
// restarted nodes host at most f1 L1 and f2 L2 servers of any group. See
// docs/ARCHITECTURE.md for the full story and docs/OPERATIONS.md for the
// runbooks.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/wire"
)

// Defaults for Config knobs left zero.
const (
	defaultPoolSize       = 2
	defaultMaxOpsPerShard = 32
)

// ErrClosed is returned by operations on a closed gateway.
var ErrClosed = errors.New("gateway: closed")

// Config describes a gateway.
type Config struct {
	// Shards is S, the number of independent keyspace shards; required.
	Shards int
	// Params is the per-group cluster geometry; required.
	Params lds.Params
	// Latency is the shared network's link-delay model; the zero value
	// delivers instantly.
	Latency transport.LatencyModel
	// Seed makes the shared network's jitter reproducible.
	Seed int64
	// InitialValue is v0 for every object.
	InitialValue []byte
	// PoolSize is the number of Writer clients (and of Reader clients)
	// pooled per object; <= 0 selects the default (2). It bounds the
	// concurrent operations per key of each kind.
	PoolSize int
	// MaxOpsPerShard bounds the operations in flight per shard across all
	// of its keys; <= 0 selects the default (32).
	MaxOpsPerShard int
	// Accountant, when non-nil, observes all traffic of all groups for
	// cost measurement (sim shards only; remote traffic crosses real
	// sockets, not the simulated network).
	Accountant *cost.Accountant
	// Code overrides the storage code; nil selects the paper's MBR code
	// for Params. One code value is shared by every group.
	Code erasure.Regenerating
	// Topology, when non-nil, assigns each shard a backend: "sim" shards
	// run in-process on the shared simulated network as before, "tcp"
	// shards run their groups on remote node processes (cmd/lds-node)
	// over tcpnet. len(Topology.Shards) must equal Shards (or Shards may
	// be left 0 to adopt the topology's count). Nil keeps every shard on
	// the sim backend.
	Topology *Topology
	// Catalog, when non-nil, persists the routing plane's bindings
	// (object→group bindings with their shards, ring epoch, remote-group
	// incarnations and boot seeds) so a restarted gateway resumes the same
	// keyspace: New reloads the catalog, derives the namespace allocator
	// and placement pins from the bindings, re-adopts the remote groups
	// still held by live node processes under their persisted
	// generations, and Close detaches from them instead of retiring them.
	// Nil keeps routing in memory only.
	Catalog Catalog
	// Repair, when non-nil, configures the anti-entropy subsystem (see
	// repair.go): scrub cadence, repair-bandwidth rate limit, and the
	// naive-repair override for experiments. Nil disables the background
	// loop but explicit ScrubRemote/RepairRemote calls always work.
	Repair *RepairOptions
}

// group is the backend-agnostic surface of one key's LDS cluster: pooled
// client construction, crash injection (where the backend supports it),
// the storage/backlog probes behind ShardStats, and teardown. sim.Cluster
// implements it for in-process groups; remoteGroup implements it over
// real node processes.
type group interface {
	Writer(wid int32) (*lds.Writer, error)
	Reader(rid int32) (*lds.Reader, error)
	CrashL1(i int)
	CrashL2(i int)
	TemporaryStorageBytes() int64
	PermanentStorageBytes() int64
	OffloadQueueDepth() int64
	Close() error
}

// backend builds the LDS groups of one shard.
type backend interface {
	// newGroup builds the group for one key in namespace ns, seeded from
	// seed when non-nil (a migration snapshot); ctx bounds any network
	// provisioning involved.
	newGroup(ctx context.Context, ns int32, seed *groupSeed) (group, error)
	// name labels the backend in ShardStats.
	name() string
}

// simBackend builds groups on the gateway's shared simulated network —
// the default, and the backend of every shard a Resize adds.
type simBackend struct{ g *Gateway }

func (b simBackend) name() string { return BackendSim }

func (b simBackend) newGroup(_ context.Context, ns int32, seed *groupSeed) (group, error) {
	g := b.g
	view, err := transport.Namespace(g.net, ns)
	if err != nil {
		return nil, err
	}
	initialValue, initialTag := g.cfg.InitialValue, tag.Zero
	if seed != nil {
		initialValue, initialTag = seed.value, seed.tag
	}
	cluster, err := sim.New(sim.Config{
		Params:       g.cfg.Params,
		InitialValue: initialValue,
		InitialTag:   initialTag,
		Code:         g.code,
		Transport:    view,
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: group %d: %w", ns, err)
	}
	return cluster, nil
}

// tcpBackend builds groups on a shard group of remote node processes,
// provisioned through the manager's registration handshake.
type tcpBackend struct {
	mgr   *remoteManager
	nodes []int32 // node ids in assignment order
}

func (b tcpBackend) name() string { return BackendTCP }

func (b tcpBackend) newGroup(ctx context.Context, ns int32, seed *groupSeed) (group, error) {
	if err := b.mgr.serveGroup(ctx, ns, b.nodes, seed); err != nil {
		return nil, err
	}
	grp, err := newRemoteGroup(b.mgr, ns)
	if err != nil {
		b.mgr.retireGroup(ns)
		return nil, err
	}
	return grp, nil
}

// Gateway is a running sharded front-end.
type Gateway struct {
	cfg  Config
	code erasure.Regenerating
	net  *channet.Network
	// remote is the real-network side of the house: non-nil iff the
	// topology has TCP shards, it owns the gateway's tcpnet listener, the
	// provisioning control plane and the remote-group registry.
	remote *remoteManager

	// route is the key→shard control plane. Its lock orders strictly
	// before any shard's lock (route.mu → shard.mu); nothing takes
	// route.mu while holding a shard lock.
	route struct {
		mu      sync.RWMutex
		version int   // bumped by every ring change
		ring    *Ring // current ring; answers keys with no placement entry
		// placement pins keys whose group lives (or must be created) off
		// the current ring's assignment: un-drained keys mid-resize and
		// hot keys spread by the rebalancer. Keys absent here follow the
		// ring.
		placement map[string]int
		// migrating marks keys with a live migration in flight, so
		// migrations of one key serialize and group creation stays off a
		// key mid-handoff.
		migrating map[string]bool
		// resizing is held true for the whole of a Resize (ring swap,
		// drain, shrink truncation); it excludes explicit MigrateKey
		// calls atomically with their key claim, so no migration can pin
		// a key onto a shard the resize is about to remove.
		resizing bool
		shards   []*shard
	}

	// ns allocates process-id namespaces for groups from the whole id
	// space, [0, transport.MaxNamespaceGroups). Reaped groups return
	// theirs to the free list, so the cap counts live groups, not lifetime
	// keys. It is memory-only: a restarted gateway derives it from the
	// catalog's bindings.
	ns struct {
		mu   sync.Mutex
		next int32
		free []int32
	}

	// Close coordination: ops register with inflight while closed is
	// false; Close flips closed, cancels closeCtx (unblocking every op
	// promptly) and waits for the registered ops to drain before tearing
	// the network down.
	closeMu   sync.Mutex
	closed    bool
	closeCtx  context.Context
	closeStop context.CancelFunc
	inflight  sync.WaitGroup

	// Catalog bookkeeping: the first append failure (CatalogErr) and what
	// New recovered (RestoreInfo); see catalog.go.
	catMu       sync.Mutex
	catErr      error
	restoreInfo *RestoreInfo

	// statsSync debounces SyncRemoteStats: concurrent callers coalesce
	// onto one in-flight sweep, and a sweep fresher than statsSyncTTL is
	// served from the cached gauges.
	statsSync struct {
		mu   sync.Mutex
		last time.Time
		busy bool
	}

	// Repair subsystem (repair.go): the traffic rate limiter shared by all
	// repair passes, and the background loop's exit signal (nil when no
	// loop was started).
	repairLimiter *tokenBucket
	repairStopped chan struct{}
}

// statsSyncTTL is how long a remote-gauge sweep stays fresh; stats calls
// within the window serve the cached gauges instead of re-sweeping the
// fleet.
const statsSyncTTL = time.Second

// New builds a gateway: the shared network, the ring, S empty shards and
// (when the topology has TCP shards) the remote control plane. LDS groups
// are created on first use of each key (or via Ensure). With a Catalog,
// New additionally reloads the persisted routing plane and re-adopts the
// remote groups a previous gateway process left running on the node
// fleet — see catalog.go and RestoreInfo.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topology != nil {
		if err := cfg.Topology.Validate(); err != nil {
			return nil, err
		}
		if cfg.Shards == 0 {
			cfg.Shards = len(cfg.Topology.Shards)
		}
		if cfg.Shards != len(cfg.Topology.Shards) {
			return nil, fmt.Errorf("gateway: %d shards configured but topology describes %d",
				cfg.Shards, len(cfg.Topology.Shards))
		}
	}
	var restored *catalog.State
	if cfg.Catalog != nil {
		st := cfg.Catalog.State()
		restored = &st
		// A persisted resize outlives the process: the catalog's shard
		// count wins when it grew past the configuration (extra shards are
		// sim-backed, exactly as Resize added them).
		if st.Shards > cfg.Shards {
			cfg.Shards = st.Shards
		}
	}
	ring, err := NewRing(cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = defaultPoolSize
	}
	if cfg.MaxOpsPerShard <= 0 {
		cfg.MaxOpsPerShard = defaultMaxOpsPerShard
	}
	code := cfg.Code
	if code == nil {
		if code, err = cfg.Params.NewCode(); err != nil {
			return nil, err
		}
	}
	var observer channet.Observer
	if cfg.Accountant != nil {
		observer = cfg.Accountant.Observe
	}
	g := &Gateway{
		cfg:  cfg,
		code: code,
		net: channet.New(channet.Options{
			Latency:  cfg.Latency,
			Seed:     cfg.Seed,
			Observer: observer,
		}),
	}
	if cfg.Topology != nil && cfg.Topology.HasRemote() {
		g.remote, err = newRemoteManager(cfg.Topology, cfg.Params, code, cfg.InitialValue)
		if err != nil {
			g.net.Close()
			return nil, err
		}
		g.remote.log = g.logRecord
	}
	g.route.ring = ring
	g.route.placement = make(map[string]int)
	g.route.migrating = make(map[string]bool)
	g.route.shards = make([]*shard, cfg.Shards)
	for i := range g.route.shards {
		g.route.shards[i] = newShard(g, i, g.backendFor(i))
	}
	g.closeCtx, g.closeStop = context.WithCancel(context.Background())
	if cfg.Repair != nil {
		g.repairLimiter = newTokenBucket(cfg.Repair.RateBytesPerSec)
	}
	if restored != nil {
		g.route.version = restored.RingVersion
		info, err := g.restoreFromCatalog(*restored)
		if err != nil {
			g.net.Close()
			if g.remote != nil {
				g.remote.close()
			}
			return nil, err
		}
		if g.remote != nil {
			ctx, cancel := context.WithTimeout(context.Background(), restoreTimeout)
			adopted, _, errs := g.remote.reconcile(ctx)
			cancel()
			info.AdoptedGroups = adopted
			for _, err := range errs {
				info.AdoptErrors = append(info.AdoptErrors, err.Error())
			}
		}
		if info.Objects+info.Dropped+info.Orphans+info.AdoptedGroups > 0 {
			g.restoreInfo = info
		}
		// Pin the resumed routing shape so a catalog created before this
		// boot (or one from an older shard count) reads back consistently.
		g.logRecord(catalog.Record{Type: catalog.TypeRing, Version: g.route.version, Shards: cfg.Shards})
	}
	if cfg.Repair != nil && cfg.Repair.Interval > 0 && g.remote != nil {
		g.repairStopped = make(chan struct{})
		go g.repairLoop(cfg.Repair.Interval)
	}
	return g, nil
}

// backendFor selects shard i's backend from the topology; shards beyond
// the topology (those a Resize adds) run on the sim backend.
func (g *Gateway) backendFor(i int) backend {
	if g.cfg.Topology != nil && i < len(g.cfg.Topology.Shards) {
		if spec := g.cfg.Topology.Shards[i]; spec.Backend == BackendTCP {
			return tcpBackend{mgr: g.remote, nodes: nodeIDs(spec.Nodes)}
		}
	}
	return simBackend{g: g}
}

// Shards returns the current shard count.
func (g *Gateway) Shards() int {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return len(g.route.shards)
}

// RingVersion returns the routing epoch: 0 at construction, bumped by
// every Resize ring swap.
func (g *Gateway) RingVersion() int {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return g.route.version
}

// Resizing reports whether a Resize is in progress (ring swap, key
// drain or shrink truncation).
func (g *Gateway) Resizing() bool {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return g.route.resizing
}

// PinnedKeys returns the number of keys currently routed off the ring's
// assignment (un-drained resize keys plus rebalancer-spread hot keys).
func (g *Gateway) PinnedKeys() int {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return len(g.route.placement)
}

// ShardFor returns the shard index currently serving key: its pinned
// placement if the key has been migrated off the ring's assignment, the
// ring's answer otherwise.
func (g *Gateway) ShardFor(key string) int {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return g.routeLocked(key)
}

// routeLocked resolves key → shard index; callers hold route.mu.
func (g *Gateway) routeLocked(key string) int {
	if sh, ok := g.route.placement[key]; ok {
		return sh
	}
	return g.route.ring.Shard(key)
}

// shardList snapshots the shard set.
func (g *Gateway) shardList() []*shard {
	g.route.mu.RLock()
	defer g.route.mu.RUnlock()
	return append([]*shard(nil), g.route.shards...)
}

// beginOp registers an operation against Close: it fails once the gateway
// is closed, and a successful call must be paired with endOp.
func (g *Gateway) beginOp() error {
	g.closeMu.Lock()
	defer g.closeMu.Unlock()
	if g.closed {
		return ErrClosed
	}
	g.inflight.Add(1)
	return nil
}

func (g *Gateway) endOp() { g.inflight.Done() }

// opContext derives the operation context: it follows the caller's ctx
// and is additionally canceled when the gateway closes, so no operation
// outlives Close into the network teardown.
func (g *Gateway) opContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(g.closeCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// opErr maps failures caused by a concurrent Close onto ErrClosed; other
// errors (and success) pass through.
func (g *Gateway) opErr(err error) error {
	if err != nil && g.closeCtx.Err() != nil {
		return ErrClosed
	}
	return err
}

// nextNamespace allocates a process-id namespace for a new group,
// preferring recycled ones. Nothing is logged: the group's GroupServe or
// ObjectSet record is what makes the namespace's use durable, and a
// restarted gateway derives its allocator from those (catalog.go).
func (g *Gateway) nextNamespace() (int32, error) {
	g.ns.mu.Lock()
	defer g.ns.mu.Unlock()
	if n := len(g.ns.free); n > 0 {
		ns := g.ns.free[n-1]
		g.ns.free = g.ns.free[:n-1]
		return ns, nil
	}
	if g.ns.next >= transport.MaxNamespaceGroups {
		return 0, fmt.Errorf("gateway: live groups exhaust the %d namespaces", transport.MaxNamespaceGroups)
	}
	ns := g.ns.next
	g.ns.next++
	return ns, nil
}

// recycleNamespace returns a reaped group's namespace to the free list.
func (g *Gateway) recycleNamespace(ns int32) {
	g.ns.mu.Lock()
	g.ns.free = append(g.ns.free, ns)
	g.ns.mu.Unlock()
}

// FreeNamespaces returns the size of the recycled-namespace free list.
func (g *Gateway) FreeNamespaces() int {
	g.ns.mu.Lock()
	defer g.ns.mu.Unlock()
	return len(g.ns.free)
}

// AllocatedNamespaces returns how many namespaces have ever been carved
// out of the id space; with recycling this grows only when a new group
// finds the free list empty.
func (g *Gateway) AllocatedNamespaces() int {
	g.ns.mu.Lock()
	defer g.ns.mu.Unlock()
	return int(g.ns.next)
}

// lookup resolves key to its current shard and, if the key's group
// already exists there, the group.
func (g *Gateway) lookup(key string) (*shard, *object) {
	g.route.mu.RLock()
	sh := g.route.shards[g.routeLocked(key)]
	g.route.mu.RUnlock()
	sh.mu.Lock()
	obj := sh.objects[key]
	sh.mu.Unlock()
	return sh, obj
}

// object returns the key's LDS group and its shard, creating the group on
// first use. Group construction is deliberately done outside all locks: it
// builds a full cluster and its client pools, and serializing that would
// stall every other key. The built group is installed only if the key
// still routes to the chosen shard (install's double-check under the route
// lock); losing the race — to a concurrent creator, or to a migration that
// rerouted the key mid-build — reaps the loser and retries.
func (g *Gateway) object(ctx context.Context, key string) (*shard, *object, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("gateway: key %q: %w", key, err)
		}
		sh, obj := g.lookup(key)
		if obj != nil {
			return sh, obj, nil
		}
		obj, ok, err := g.createObject(ctx, key, sh)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			return sh, obj, nil
		}
		// The key was rerouted while the group was being built; retry.
	}
}

// createObject runs one build+install cycle for key targeted at sh. It
// returns ok=false when the key was rerouted off sh mid-build (the
// caller re-resolves and retries); otherwise the returned object is
// either the freshly installed group or a concurrent creator's winner.
func (g *Gateway) createObject(ctx context.Context, key string, sh *shard) (*object, bool, error) {
	grp, ns, err := g.buildGroup(ctx, sh.be, nil)
	if err != nil {
		return nil, false, err
	}
	obj, err := newObject(grp, ns, g.cfg.PoolSize)
	if err != nil {
		grp.Close()
		g.recycleNamespace(ns)
		return nil, false, err
	}
	winner, existing := g.install(key, sh, obj)
	if winner {
		return obj, true, nil
	}
	obj.grp.Close()
	g.recycleNamespace(ns)
	if existing != nil {
		return existing, true, nil
	}
	return nil, false, nil
}

// install inserts a freshly built group for key into sh if the key still
// routes there and no concurrent creator won. It returns winner=true on
// success; otherwise existing is the concurrent winner's group (nil when
// the key was rerouted and the caller must retry).
func (g *Gateway) install(key string, sh *shard, obj *object) (winner bool, existing *object) {
	g.route.mu.Lock()
	defer g.route.mu.Unlock()
	if g.routeLocked(key) != sh.index || g.route.migrating[key] {
		return false, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prior, ok := sh.objects[key]; ok {
		return false, prior
	}
	// A shard-level crash covers future groups too: the shard's servers
	// are conceptually crashed, and every group runs on them.
	for _, i := range sh.crashedL1 {
		obj.grp.CrashL1(i)
	}
	for _, i := range sh.crashedL2 {
		obj.grp.CrashL2(i)
	}
	sh.objects[key] = obj
	// The ObjectSet record is the creation's commit point; a restarted
	// gateway derives the key's pin from it.
	g.logRecord(catalog.Record{Type: catalog.TypeObjectSet, Key: key, NS: obj.ns, Shard: sh.index})
	return true, nil
}

// Ensure instantiates the LDS groups for the given keys without
// performing an operation, so their L2 layers hold v0's coded elements up
// front. It honors ctx and takes one shard-semaphore token per group it
// builds, so a large Ensure is subject to the same per-shard backpressure
// as operations and cannot stampede group construction.
func (g *Gateway) Ensure(ctx context.Context, keys ...string) error {
	if err := g.beginOp(); err != nil {
		return err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	for _, key := range keys {
		for {
			if err := ctx.Err(); err != nil {
				return g.opErr(fmt.Errorf("gateway: ensure %q: %w", key, err))
			}
			sh, obj := g.lookup(key)
			if obj != nil {
				break
			}
			// The semaphore token is taken on the same shard the build
			// targets; a reroute mid-build retries with the new shard's.
			if err := sh.acquire(ctx); err != nil {
				return g.opErr(err)
			}
			_, ok, err := g.createObject(ctx, key, sh)
			sh.release()
			if err != nil {
				return g.opErr(err)
			}
			if ok {
				break
			}
		}
	}
	return nil
}

// Put writes value under key and returns the tag of the write. value is
// the caller's again once Put returns: the store keeps its own copy.
//
// Ordering matters here: the key's pooled client is checked out before
// the shard's semaphore token, so an operation parked behind a hot key's
// pool does not hold a token — the semaphore bounds operations actually
// executing on the shard, and one hot key cannot head-of-line-block its
// shard siblings. A client checked out of a retired pool (the key's group
// was migrated away between lookup and checkout) is returned and the
// lookup retried against the key's new home.
func (g *Gateway) Put(ctx context.Context, key string, value []byte) (tag.Tag, error) {
	if err := g.beginOp(); err != nil {
		return tag.Tag{}, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	for {
		sh, obj, err := g.object(ctx, key)
		if err != nil {
			return tag.Tag{}, g.opErr(err)
		}
		w, err := obj.takeWriter(ctx)
		if err != nil {
			return tag.Tag{}, g.opErr(err)
		}
		if obj.retired.Load() {
			obj.putWriter(w)
			continue
		}
		if err := sh.acquire(ctx); err != nil {
			obj.putWriter(w)
			return tag.Tag{}, g.opErr(err)
		}
		obj.ops.Add(1)
		start := time.Now()
		t, err := w.Write(ctx, value)
		sh.observe(true, time.Since(start), len(value), err)
		sh.release()
		obj.putWriter(w)
		return t, g.opErr(err)
	}
}

// Get reads the value stored under key and the tag it was written under.
// The returned value is the caller's: it shares no storage with the store.
// Pool-before-semaphore ordering and retired-pool retry as in Put.
func (g *Gateway) Get(ctx context.Context, key string) ([]byte, tag.Tag, error) {
	if err := g.beginOp(); err != nil {
		return nil, tag.Tag{}, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	for {
		sh, obj, err := g.object(ctx, key)
		if err != nil {
			return nil, tag.Tag{}, g.opErr(err)
		}
		r, err := obj.takeReader(ctx)
		if err != nil {
			return nil, tag.Tag{}, g.opErr(err)
		}
		if obj.retired.Load() {
			obj.putReader(r)
			continue
		}
		if err := sh.acquire(ctx); err != nil {
			obj.putReader(r)
			return nil, tag.Tag{}, g.opErr(err)
		}
		obj.ops.Add(1)
		start := time.Now()
		v, t, err := r.Read(ctx)
		sh.observe(false, time.Since(start), len(v), err)
		sh.release()
		obj.putReader(r)
		return v, t, g.opErr(err)
	}
}

// CrashShardL1 crash-fails L1 server i in every group of the shard,
// current and future. Other shards are unaffected: the groups share only
// the transport, and crashed ids are namespaced per group.
func (g *Gateway) CrashShardL1(shard, i int) { g.shardList()[shard].crashL1(i) }

// CrashShardL2 crash-fails L2 server i in every group of the shard.
func (g *Gateway) CrashShardL2(shard, i int) { g.shardList()[shard].crashL2(i) }

// WaitIdle blocks until no messages are in flight anywhere on the shared
// simulated network — every sim group's asynchronous write-to-L2 tail
// included. Remote shards' traffic crosses real sockets and is not
// covered; quiescence there is a property of the node processes.
func (g *Gateway) WaitIdle(timeout time.Duration) error { return g.net.WaitIdle(timeout) }

// Stats returns a per-shard snapshot, indexed by shard.
func (g *Gateway) Stats() []ShardStats {
	shards := g.shardList()
	out := make([]ShardStats, len(shards))
	for i, sh := range shards {
		out[i] = sh.snapshot()
	}
	return out
}

// TemporaryBytes sums the L1 temporary-storage bytes over all groups (the
// paper's temporary storage cost, unnormalized).
func (g *Gateway) TemporaryBytes() int64 {
	var total int64
	for _, sh := range g.shardList() {
		total += sh.temporaryBytes()
	}
	return total
}

// PermanentBytes sums the L2 coded bytes over all groups.
func (g *Gateway) PermanentBytes() int64 {
	var total int64
	for _, sh := range g.shardList() {
		total += sh.permanentBytes()
	}
	return total
}

// Close shuts every group and both transports down. Concurrent
// operations are unblocked promptly (they fail with ErrClosed) and
// drained before the networks are torn down, so no operation ever runs on
// a dead transport.
//
// Remote-group teardown depends on the catalog. Without one, Close fires
// best-effort retires (node processes that miss them discard stale groups
// when their namespaces are re-served). With a catalog, Close instead
// detaches: the node-held servers keep running, the catalog keeps
// describing them, and the next New against the same catalog re-adopts
// them under their persisted generations — the graceful-restart path.
func (g *Gateway) Close() error {
	g.closeMu.Lock()
	if g.closed {
		g.closeMu.Unlock()
		return nil
	}
	g.closed = true
	g.closeMu.Unlock()
	g.closeStop()
	if g.repairStopped != nil {
		<-g.repairStopped // the background repair loop is off the transport
	}
	g.inflight.Wait()
	detach := g.cfg.Catalog != nil
	for _, sh := range g.shardList() {
		sh.closeObjects(detach)
	}
	err := g.net.Close()
	if g.remote != nil {
		if rerr := g.remote.close(); err == nil {
			err = rerr
		}
	}
	return err
}

// groupSeed boots a group from a migration snapshot instead of (v0, t0).
type groupSeed struct {
	value []byte
	tag   tag.Tag
}

// buildGroup allocates a namespace (fresh or recycled) and asks the
// backend to build one LDS group in it, optionally seeded from a
// migration snapshot. The namespace is recycled on failure.
func (g *Gateway) buildGroup(ctx context.Context, be backend, seed *groupSeed) (group, int32, error) {
	ns, err := g.nextNamespace()
	if err != nil {
		return nil, 0, err
	}
	grp, err := be.newGroup(ctx, ns, seed)
	if err != nil {
		g.recycleNamespace(ns)
		return nil, 0, err
	}
	return grp, ns, nil
}

// ProbeRemoteNodes health-checks every node process of the topology over
// the control plane and reports per-node status. It returns ErrNoTopology
// on a gateway without TCP shards. The probes run concurrently, each with
// a short deadline derived from ctx, so one dead node does not stall the
// sweep beyond its share.
func (g *Gateway) ProbeRemoteNodes(ctx context.Context) ([]NodeStatus, error) {
	if g.remote == nil {
		return nil, ErrNoTopology
	}
	if err := g.beginOp(); err != nil {
		return nil, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	m := g.remote
	ids := slices.Sorted(maps.Keys(m.nodes))
	out := make([]NodeStatus, len(ids))
	eachNode(ctx, ids, func(ctx context.Context, i int, id int32) {
		out[i] = NodeStatus{ID: id, Addr: m.nodes[id]}
		start := time.Now()
		pong, err := request[wire.NodePong](ctx, m, id, func(seq uint64) wire.Message {
			return wire.NodePing{Seq: seq, ReplyAddr: m.advertise}
		})
		if err == nil {
			out[i] = NodeStatus{ID: id, Addr: m.nodes[id], Alive: true, Groups: pong.Groups, Servers: pong.Servers,
				TemporaryBytes: pong.TemporaryBytes, PermanentBytes: pong.PermanentBytes,
				OffloadQueueDepth: pong.OffloadQueueDepth, RTT: time.Since(start)}
		}
	})
	return out, g.opErr(ctx.Err())
}

// SyncRemoteStats refreshes the cached storage gauges of every remote
// group by sampling the node fleet over the control plane — one bulk
// wire.GroupStats RPC per node (fanned out concurrently), so the sweep
// costs O(nodes) RPCs and about one statsNodeTimeout of wall clock no
// matter how many keys are live — after which Stats(), TemporaryBytes
// and PermanentBytes report live occupancy for TCP shards. It returns
// ErrNoTopology on a gateway without TCP shards. Sweeps are debounced:
// calls within statsSyncTTL of the last sweep (or while one is running)
// return immediately and readers see the cached gauges, so a monitoring
// scraper cannot stampede the control plane. On failure every gauge
// keeps its previous sample.
func (g *Gateway) SyncRemoteStats(ctx context.Context) error {
	if g.remote == nil {
		return ErrNoTopology
	}
	g.statsSync.mu.Lock()
	if g.statsSync.busy || time.Since(g.statsSync.last) < statsSyncTTL {
		g.statsSync.mu.Unlock()
		return nil
	}
	g.statsSync.busy = true
	g.statsSync.mu.Unlock()
	defer func() {
		g.statsSync.mu.Lock()
		g.statsSync.busy = false
		g.statsSync.last = time.Now()
		g.statsSync.mu.Unlock()
	}()
	if err := g.beginOp(); err != nil {
		return err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()

	targets := g.remoteTargets()
	if len(targets) == 0 {
		return nil
	}
	return g.opErr(g.remote.sampleStats(ctx, targets))
}

// ReprovisionRemote reconciles every node that hosts a live remote group:
// one request per node lists the groups it holds, and the node is served
// exactly the groups it lacks. A node that restarted (and so holds
// nothing) rebuilds its servers at each group's boot seed and rejoins its
// quorums. Call it after restarting a node — the runbook step that returns
// the cluster to full fault tolerance.
func (g *Gateway) ReprovisionRemote(ctx context.Context) error {
	if g.remote == nil {
		return ErrNoTopology
	}
	if err := g.beginOp(); err != nil {
		return err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	if _, _, errs := g.remote.reconcile(ctx); len(errs) > 0 {
		return g.opErr(fmt.Errorf("gateway: reprovision: %w", errors.Join(errs...)))
	}
	return g.opErr(ctx.Err())
}
