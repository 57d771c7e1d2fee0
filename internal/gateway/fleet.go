package gateway

// This file is the multi-gateway fleet layer: several gateway processes
// fronting one node fleet, partitioned by per-shard leases in a shared
// lease store (internal/catalog's LeaseStore).
//
// # Ownership model
//
// Every keyspace shard has at most one owner gateway at a time, decided by
// the lease store: Claim and Renew fsync their record before returning, so
// a lease exists on disk before any peer learns of it (the write-ahead
// rule, mirroring the catalog's generation discipline). Gateways cache the
// lease table in memory and refresh it from announcements (wire.LeaseClaim
// / wire.LeaseRenew, accepted only with non-regressing epochs) and from
// direct store reads; the cache routes requests, the store decides
// ownership. One asymmetry is load-bearing: a lease naming THIS gateway
// enters the cache only from the renew loop, after any failover adoption
// completed — never from a store refresh or an announcement, which would
// otherwise flip owns() in the window between a claim being granted and
// the claimed shard's data being adopted.
//
// A gateway serves a shard's keys locally only while its cached lease on
// that shard is held and its own. Operations on shards owned elsewhere are
// forwarded to the owner over the peer plane (wire.PeerForward) rather
// than erroring: any gateway is a full front door for the whole keyspace.
//
// # Why mid-operation lease loss is safe
//
// The gate is checked once per operation, so a lease can lapse while an
// operation runs. That is deliberate. Serving an *existing* group is
// always safe — the group is one L1/L2 cluster on the node fleet, and the
// paper's protocol linearizes concurrent clients of one group wherever
// they live. The hazard is two gateways *creating* (or adopting) groups
// for the same key, and that is excluded not by the lease but by the
// catalog flock: a failover claimant must adopt the previous owner's
// catalog before serving, catalog.Open fails with ErrLocked while the
// previous owner's process is alive, and a claimant that cannot adopt
// releases its claim and serves nothing. The lease is the liveness and
// routing signal; the flock is the mutual exclusion.
//
// # Failover
//
// The renew loop (every TTL/3) renews owned shards and watches the rest.
// A shard whose lease has lapsed is claimed. The lease store tracks two
// owners per shard: the lease holder (who may serve) and the *data owner*
// (whose catalog holds the shard's durable state). Claim moves only the
// former; a claimant whose grant says the data lives elsewhere adopts
// that gateway's durable state before publishing ownership:
//
//	claim shards (store, fsync'd; DataOwner still the previous holder)
//	open the data owner's catalog       — ErrLocked ⇒ peer alive ⇒ release, retry later
//	append adopted bindings to OWN catalog (GroupServe under the peer's
//	  generations, GenFloor at the peer's allocator, ObjectSet per key)
//	install the adopted groups and objects in memory
//	Store.Adopt (fsync'd)               — the data owner is us from here on
//	append the transfer to the PEER catalog (NSQuarantine first, then
//	  GroupRetire and ObjectDel) — a restarted peer neither re-adopts the
//	  moved groups nor ever re-issues their namespaces
//	re-serve each adopted group to its nodes under the SAME generation
//	  (idempotent GroupServe: nodes keep state, learn the new gateway's
//	  client address), then publish ownership to the cache and announce
//
// Writing the own-catalog records first (while still holding the peer
// catalog's flock) means a crash mid-adoption leaves the groups referenced
// by at least one catalog — duplicate references converge at the next
// failover, lost references would be silent data loss. Store.Adopt sits
// between the two appends for the same reason: at every instant DataOwner
// points at a catalog that verifiably holds the records, so an aborted
// claim (released after a failed adoption — the previous owner was alive,
// say) leaves DataOwner untouched and the next claim, by anyone including
// the aborted claimant itself, retries the adoption against the original
// peer rather than concluding there is nothing to adopt.
//
// # Namespace partitioning
//
// Gateways sharing a node fleet share its process-id space, so each fleet
// member allocates namespaces only from its own disjoint slice of
// [0, transport.MaxNamespaceGroups), sized by fleet rank. Adopted
// namespaces come from the dead peer's slice; they are quarantined in the
// peer's catalog, owned by the adopter's catalog from then on, and the
// adopter's allocator never mints from that slice itself.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// defaultLeaseTTL is the lease term when FleetConfig.LeaseTTL is zero:
// long enough that one missed renew tick (TTL/3) never lapses a healthy
// owner, short enough that failover absorbs a dead peer's shards in a few
// seconds.
const defaultLeaseTTL = 3 * time.Second

// peerCtlBase maps gateway fleet ids onto control-endpoint indices:
// gateway g's peer endpoint is ProcID{RoleControl, peerCtlBase - g}. Node
// control endpoints use non-negative indices and the gateway's own control
// endpoint is -1, so indices ≤ -2 are free for the peer plane, and the
// mapping is its own inverse (id = peerCtlBase - index).
const peerCtlBase = -2

// forwardDedupCap bounds the per-gateway cache of executed forwards kept
// for duplicate-suppression replay.
const forwardDedupCap = 1024

// forwardExecTimeout bounds one forwarded operation's execution on the
// owner; the origin retransmits on its own schedule and its client context
// is the real deadline.
const forwardExecTimeout = 30 * time.Second

// ErrFleetStatic is returned by keyspace-reshaping operations (Resize,
// MigrateKey) on a fleet-mode gateway: the key→shard map must agree across
// every fleet member, and shard ownership is lease-partitioned, so
// reshaping would need a fleet-wide coordination protocol this layer does
// not have.
var ErrFleetStatic = errors.New("gateway: keyspace reshaping is disabled in fleet mode (shard ownership is lease-partitioned)")

// ErrNoFleet is returned by fleet-only surfaces on a single-gateway
// configuration.
var ErrNoFleet = errors.New("gateway: no fleet configured")

// errPeerAlive reports that a failover adoption found the previous owner's
// catalog still flocked: the peer process is alive (a lapsed lease is a
// slow renewer, not a corpse), so the claim is released and retried later.
var errPeerAlive = errors.New("gateway: previous owner's catalog is locked; peer is alive")

// PeerSpec names one other gateway of the fleet.
type PeerSpec struct {
	// ID is the peer's fleet id (its -gateway-id).
	ID int32
	// Addr is the peer's gateway listener address — the tcpnet listener
	// its peer-plane endpoint is registered on.
	Addr string
}

// FleetConfig turns a gateway into one member of a multi-gateway fleet.
type FleetConfig struct {
	// ID is this gateway's fleet id; ids must be unique across the fleet
	// and non-negative.
	ID int32
	// Peers lists the other fleet members.
	Peers []PeerSpec
	// LeaseTTL is the lease term; zero selects defaultLeaseTTL. Every
	// member must use the same order of magnitude (the claimant's TTL
	// decides how long a dead peer's shards stay unowned).
	LeaseTTL time.Duration
	// Store is the shared lease store every fleet member opens over the
	// same directory (a shared filesystem in real deployments).
	Store *catalog.LeaseStore
	// PeerCatalog maps a peer's fleet id to its catalog directory, the
	// input of failover adoption. It must resolve every id in Peers.
	PeerCatalog func(id int32) string
	// Net overrides the transport the peer plane registers on — chaos
	// tests inject a faultnet-wrapped in-memory network here. Nil uses the
	// gateway's own tcpnet listener, with peer ids resolved through Peers.
	Net transport.Network
}

// peerProcID maps a gateway fleet id to its peer-plane endpoint.
func peerProcID(id int32) wire.ProcID {
	return wire.ProcID{Role: wire.RoleControl, Index: peerCtlBase - id}
}

// forwardKey identifies one forwarded operation for duplicate suppression:
// the origin gateway and its sequence number.
type forwardKey struct {
	origin int32
	seq    uint64
}

// forwardEntry records one executed forward so retransmits replay the
// recorded response instead of re-applying the operation (a re-applied put
// would be a phantom write under a tag no client observed).
type forwardEntry struct {
	done bool
	resp wire.PeerForwardResp
}

// fleet is the per-gateway fleet runtime.
type fleet struct {
	g    *Gateway
	cfg  FleetConfig
	ttl  time.Duration
	ids  []int32 // sorted fleet ids, self included; index = rank
	node transport.Node

	// nsLo/nsHi bound this member's namespace-allocation slice.
	nsLo, nsHi int32

	mu      sync.Mutex
	leases  map[int32]catalog.Lease // shard -> freshest known lease
	addrs   map[int32]string        // gateway id -> peer-plane address
	seq     uint64
	pending map[uint64]chan wire.PeerForwardResp
	dedup   map[forwardKey]*forwardEntry
	dedupQ  []forwardKey

	// adoptMu serializes failover adoptions; the renew loop is the only
	// periodic caller but boot-time claims overlap its first tick.
	adoptMu sync.Mutex

	// releaseOnStop is cleared by crash-simulation tests so Close leaves
	// the leases to expire exactly as a killed process would.
	releaseOnStop bool

	// fwdWG counts in-flight executeForward goroutines; stopAndRelease
	// waits them out (each is bounded by forwardExecTimeout) so no forward
	// outlives Close touching the catalog or a closed network.
	fwdWG sync.WaitGroup

	stop chan struct{}
	done chan struct{}
}

// newFleet validates the configuration and computes the member's identity
// and namespace slice; it registers nothing and claims nothing (start does,
// after the gateway's catalog restore).
func newFleet(g *Gateway, cfg FleetConfig) (*fleet, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("gateway: fleet id %d must be non-negative", cfg.ID)
	}
	if cfg.Store == nil {
		return nil, errors.New("gateway: fleet mode requires a shared lease store")
	}
	if g.cfg.Catalog == nil {
		return nil, errors.New("gateway: fleet mode requires a catalog (failover adopts the dead peer's catalog)")
	}
	if cfg.PeerCatalog == nil {
		return nil, errors.New("gateway: fleet mode requires a PeerCatalog mapping (failover adopts the dead peer's catalog)")
	}
	if g.cfg.Topology == nil {
		return nil, errors.New("gateway: fleet mode requires a tcp topology (sim groups die with their process and cannot fail over)")
	}
	for i, spec := range g.cfg.Topology.Shards {
		if spec.Backend != BackendTCP {
			return nil, fmt.Errorf("gateway: fleet mode requires every shard on the tcp backend; shard %d is %q", i, spec.Backend)
		}
	}
	ids := []int32{cfg.ID}
	addrs := map[int32]string{}
	for _, p := range cfg.Peers {
		if p.ID < 0 {
			return nil, fmt.Errorf("gateway: fleet peer id %d must be non-negative", p.ID)
		}
		if p.ID == cfg.ID {
			return nil, fmt.Errorf("gateway: fleet peer id %d collides with this gateway's id", p.ID)
		}
		if _, dup := addrs[p.ID]; dup {
			return nil, fmt.Errorf("gateway: duplicate fleet peer id %d", p.ID)
		}
		addrs[p.ID] = p.Addr
		ids = append(ids, p.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rank := sort.Search(len(ids), func(i int) bool { return ids[i] >= cfg.ID })
	span := transport.MaxNamespaceGroups / int32(len(ids))
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	return &fleet{
		g:    g,
		cfg:  cfg,
		ttl:  ttl,
		ids:  ids,
		nsLo: int32(rank) * span,
		nsHi: int32(rank)*span + span,
		// Sequence numbers must be unique per origin across process
		// restarts, not just within one: executed forwards are remembered
		// by (origin, seq) — in peers' memory and, for puts, durably in
		// their catalogs — and a restarted origin that re-counted from
		// zero would collide with its previous incarnation's numbers and
		// be answered with a dead operation's recorded response. Seeding
		// from the boot clock keeps each boot's range disjoint.
		seq:           uint64(time.Now().UnixNano()),
		leases:        make(map[int32]catalog.Lease),
		addrs:         addrs,
		pending:       make(map[uint64]chan wire.PeerForwardResp),
		dedup:         make(map[forwardKey]*forwardEntry),
		releaseOnStop: true,
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}, nil
}

// membershipDesc is this member's canonical fleet fingerprint: the sorted
// member ids (the input of the namespace-slice partition) and the shard
// count (the key space of the lease table). Compared byte-for-byte across
// members by LeaseStore.EnsureMembership.
func (f *fleet) membershipDesc() string {
	parts := make([]string, len(f.ids))
	for i, id := range f.ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return fmt.Sprintf("members=%s shards=%d", strings.Join(parts, ","), len(f.g.cfg.Topology.Shards))
}

// rankOf returns a gateway id's rank in the sorted fleet, or -1.
func (f *fleet) rankOf(id int32) int {
	i := sort.Search(len(f.ids), func(i int) bool { return f.ids[i] >= id })
	if i < len(f.ids) && f.ids[i] == id {
		return i
	}
	return -1
}

// preferredOwner returns the fleet id that claims shard s at boot: shards
// round-robin over the sorted member list, so a fleet started together
// splits the keyspace evenly without coordination.
func (f *fleet) preferredOwner(s int32) int32 {
	return f.ids[int(s)%len(f.ids)]
}

// restoreNext computes the namespace allocator's resume point within this
// member's slice. The catalog's global NextNS cannot be used directly: an
// adopted group raises it into another member's slice, and resuming there
// would mint namespaces a live peer owns. Namespaces this member allocated
// but that reach no surviving record are simply re-minted — safe, because
// a generation (and therefore any node-side state) is only ever issued
// under a namespace with a durable GroupServe record.
func (f *fleet) restoreNext(st *catalog.State) int32 {
	next := f.nsLo
	bump := func(ns int32) {
		if ns >= f.nsLo && ns < f.nsHi && ns >= next {
			next = ns + 1
		}
	}
	for _, ns := range st.FreeNS {
		bump(ns)
	}
	for _, ns := range st.Quarantine {
		bump(ns)
	}
	for ns := range st.Groups {
		bump(ns)
	}
	for _, o := range st.Objects {
		bump(o.NS)
	}
	return next
}

// start registers the peer-plane endpoint, performs the boot claims and
// launches the renew loop. It runs at the tail of New, after the catalog
// restore: boot-time failover (claiming a dead peer's expired shards)
// reuses the same adoption path as the steady-state loop.
func (f *fleet) start() error {
	if got, want := f.g.Shards(), len(f.g.cfg.Topology.Shards); got != want {
		// A catalog from a resized single-gateway past grew sim-backed
		// shards the fleet's all-tcp rule cannot cover.
		return fmt.Errorf("gateway: catalog resumed %d shards but the fleet topology describes %d; fleet mode requires them equal", got, want)
	}
	// Membership gate: every member must agree on the id set (which sizes
	// the disjoint namespace-allocation slices) and the shard count (which
	// keys the lease table). The store records the first member's view and
	// refuses mismatching joiners — a -peer list typo would otherwise
	// silently overlap two members' slices and let them mint the same
	// namespace.
	if err := f.cfg.Store.EnsureMembership(f.membershipDesc()); err != nil {
		return fmt.Errorf("gateway: fleet membership: %w", err)
	}
	net := f.cfg.Net
	if net == nil {
		if f.g.remote == nil {
			return errors.New("gateway: fleet mode requires the remote control plane")
		}
		net = f.g.remote.net
	}
	// Forwards this gateway executed in a previous incarnation are replayed
	// from the catalog, not re-executed: origins may still be
	// retransmitting them.
	f.primeForwards(f.g.cfg.Catalog.State().Forwards)
	node, err := net.Register(peerProcID(f.cfg.ID), f.handlePeer)
	if err != nil {
		return fmt.Errorf("gateway: fleet peer endpoint: %w", err)
	}
	f.node = node
	if f.g.remote != nil {
		f.g.remote.setPeerResolver(f.peerAddr)
	}
	if err := f.tick(true); err != nil {
		node.Close()
		return err
	}
	go f.renewLoop()
	return nil
}

// stopAndRelease ends the renew loop, closes the peer endpoint and (unless
// a crash test disabled it) releases every owned lease so a surviving peer
// can claim the shards without waiting out the TTL.
func (f *fleet) stopAndRelease() {
	close(f.stop)
	<-f.done
	f.fwdWG.Wait()
	if f.node != nil {
		f.node.Close()
	}
	f.mu.Lock()
	owned := make(map[int32]catalog.Lease)
	release := f.releaseOnStop
	for s, l := range f.leases {
		if l.Owner == f.cfg.ID && l.Held(time.Now().UnixNano()) {
			owned[s] = l
		}
	}
	f.mu.Unlock()
	if !release {
		return
	}
	for s, l := range owned {
		f.cfg.Store.Release(s, f.cfg.ID, l.Epoch)
	}
}

// renewLoop is the fleet heartbeat: renew what we own, claim what lapsed.
// The cadence is TTL/3 (two chances to renew before a lapse) but never
// slower than two seconds, so gracefully released leases are claimed
// promptly even under long TTLs.
func (f *fleet) renewLoop() {
	defer close(f.done)
	interval := f.ttl / 3
	if interval > 2*time.Second {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.tick(false)
		}
	}
}

// tick runs one heartbeat round against the store's current truth. During
// boot it is fatal for the store to be unreadable; afterwards errors are
// retried next tick (the gateway keeps serving what it owns — a lease it
// cannot renew simply lapses and fails over, which is the design).
func (f *fleet) tick(boot bool) error {
	snap, err := f.cfg.Store.Snapshot()
	if err != nil {
		if boot {
			return fmt.Errorf("gateway: lease store: %w", err)
		}
		return nil
	}
	now := time.Now().UnixNano()
	shards := int32(f.g.Shards())

	// One pass over the shards: renew what we hold (trusted even fresh off
	// a restart — the catalog restore that just ran re-adopted everything
	// our catalog holds, which is exactly the state our leases with
	// DataOwner == us cover), note what peers hold, claim what lapsed.
	// Shards whose grant says the durable state lives in another gateway's
	// catalog — a fresh failover claim, or a lease we hold because a
	// previous incarnation crashed after claiming but before adopting —
	// are grouped per data owner so each dead peer's catalog is adopted
	// once, and published only after that adoption.
	var announce []wire.Message
	type claimed struct {
		shard int32
		lease catalog.Lease
	}
	perPeer := make(map[int32][]claimed)
	for s := int32(0); s < shards; s++ {
		l := snap[s]
		switch {
		case l.Owner == f.cfg.ID && l.Held(now):
			renewed, err := f.cfg.Store.Renew(s, f.cfg.ID, l.Epoch, f.ttl)
			if err != nil {
				// Fenced: someone claimed over us. Their adoption could only
				// have proceeded if our catalog flock was free, so this is a
				// cache-level demotion, not a conflict; drop the shard and
				// let forwarding route to the new owner.
				f.dropOwned(s)
				continue
			}
			if renewed.DataOwner != f.cfg.ID {
				// Held but never adopted (we crashed mid-failover between
				// Claim and Adopt): the renewal keeps the fence, the
				// adoption below finishes the job, and only then is the
				// shard published.
				perPeer[renewed.DataOwner] = append(perPeer[renewed.DataOwner], claimed{s, renewed})
				continue
			}
			f.noteLease(s, renewed, "")
			announce = append(announce, wire.LeaseRenew{Shard: s, Owner: f.cfg.ID,
				Epoch: renewed.Epoch, Expiry: renewed.Expiry, ReplyAddr: f.advertise()})
		case l.Held(now):
			f.noteLease(s, l, "")
		default:
			if boot && l.Epoch == 0 && f.preferredOwner(s) != f.cfg.ID {
				// Fresh fleet: leave unclaimed shards to their preferred
				// owner for the first round; the steady-state loop takes
				// anything still unowned a tick later.
				continue
			}
			granted, err := f.cfg.Store.Claim(s, f.cfg.ID, f.ttl)
			if err != nil {
				continue // raced with another claimant; its announcement will arrive
			}
			if granted.DataOwner == f.cfg.ID {
				// Virgin shard, or data our own catalog already holds (a
				// graceful release, or a lapsed lease we had fully
				// adopted): nothing to adopt.
				f.noteLease(s, granted, "")
				announce = append(announce, wire.LeaseClaim{Shard: s, Owner: f.cfg.ID,
					Epoch: granted.Epoch, Expiry: granted.Expiry, ReplyAddr: f.advertise()})
				continue
			}
			perPeer[granted.DataOwner] = append(perPeer[granted.DataOwner], claimed{s, granted})
		}
	}

	// Failover: adopt each dead peer's durable state for the shards just
	// claimed, and only then publish ownership. A claim whose adoption
	// cannot proceed (peer alive, catalog unreachable) is released — with
	// DataOwner untouched, so the next claim retries the adoption — and
	// the cache never says "mine" for a shard whose state was not adopted.
	for peer, claims := range perPeer {
		epochs := make(map[int32]uint64, len(claims))
		for _, c := range claims {
			epochs[c.shard] = c.lease.Epoch
		}
		adopted, err := f.adoptPeer(peer, epochs)
		if err != nil {
			for _, c := range claims {
				f.cfg.Store.Release(c.shard, f.cfg.ID, c.lease.Epoch)
			}
			if boot && !errors.Is(err, errPeerAlive) {
				return fmt.Errorf("gateway: failover adoption of gateway %d: %w", peer, err)
			}
			continue
		}
		for _, c := range claims {
			if !adopted[c.shard] {
				continue // fenced mid-adoption; whoever fenced us re-adopts
			}
			c.lease.DataOwner = f.cfg.ID
			f.noteLease(c.shard, c.lease, "")
			announce = append(announce, wire.LeaseClaim{Shard: c.shard, Owner: f.cfg.ID,
				Epoch: c.lease.Epoch, Expiry: c.lease.Expiry, ReplyAddr: f.advertise()})
		}
	}

	f.sendAnnouncements(announce)
	return nil
}

// dropOwned demotes a shard in the cache after a fencing (lost renew).
func (f *fleet) dropOwned(s int32) {
	f.mu.Lock()
	if l, ok := f.leases[s]; ok && l.Owner == f.cfg.ID {
		delete(f.leases, s)
	}
	f.mu.Unlock()
}

// noteLease folds one lease observation (store read, grant, announcement)
// into the cache. Epochs never regress, and within an epoch the expiry
// only extends — so duplicated or reordered announcements are harmless.
func (f *fleet) noteLease(s int32, l catalog.Lease, addr string) {
	f.mu.Lock()
	cur := f.leases[s]
	if l.Epoch > cur.Epoch || (l.Epoch == cur.Epoch && l.Expiry > cur.Expiry) {
		f.leases[s] = l
	}
	if addr != "" && l.Owner != f.cfg.ID {
		f.addrs[l.Owner] = addr
	}
	f.mu.Unlock()
}

// sendAnnouncements stamps and fires lease announcements at every peer;
// best-effort and unacknowledged — the store is the truth, announcements
// only warm caches.
func (f *fleet) sendAnnouncements(msgs []wire.Message) {
	if len(msgs) == 0 || f.node == nil {
		return
	}
	f.mu.Lock()
	peers := make([]int32, 0, len(f.ids)-1)
	for _, id := range f.ids {
		if id != f.cfg.ID {
			peers = append(peers, id)
		}
	}
	seqs := make([]uint64, len(msgs))
	for i := range msgs {
		f.seq++
		seqs[i] = f.seq
	}
	f.mu.Unlock()
	for i, m := range msgs {
		switch lm := m.(type) {
		case wire.LeaseClaim:
			lm.Seq = seqs[i]
			m = lm
		case wire.LeaseRenew:
			lm.Seq = seqs[i]
			m = lm
		}
		for _, id := range peers {
			f.node.Send(peerProcID(id), m)
		}
	}
}

// advertise is the address peers can reach our peer endpoint at; empty on
// an injected test transport, where ProcID routing needs no address book.
func (f *fleet) advertise() string {
	if f.cfg.Net != nil || f.g.remote == nil {
		return ""
	}
	return f.g.remote.advertise
}

// peerAddr resolves a fleet id to its peer-plane address for the tcpnet
// resolver: the static Peers book merged with addresses learned from
// announcements and forwards.
func (f *fleet) peerAddr(id int32) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr, ok := f.addrs[id]
	return addr, ok && addr != ""
}

// owns reports whether this gateway currently holds shard s. It reads the
// cache, which by construction only says "mine" after the claim (and any
// failover adoption) completed.
func (f *fleet) owns(s int) bool {
	now := time.Now().UnixNano()
	f.mu.Lock()
	l := f.leases[int32(s)]
	f.mu.Unlock()
	return l.Owner == f.cfg.ID && l.Held(now)
}

// refresh reloads the lease cache from the store — the slow path taken
// when forwarding finds no live owner or was told NotOwner. Leases the
// store records for THIS gateway are skipped: the store shows a claim the
// instant it is granted, before the failover adoption that makes the
// shard servable, and folding it in would flip owns() early — serving an
// un-adopted shard mints fresh groups over the dead peer's data. Self-
// ownership enters the cache only through tick, after adoption.
func (f *fleet) refresh() {
	snap, err := f.cfg.Store.Snapshot()
	if err != nil {
		return
	}
	for s, l := range snap {
		if l.Owner == f.cfg.ID {
			continue
		}
		f.noteLease(s, l, "")
	}
}

// Leases snapshot for the operator surface; see Gateway.FleetLeases.

// LeaseStatus is one shard's ownership as reported by FleetLeases.
type LeaseStatus struct {
	Shard  int    `json:"shard"`
	Owner  int32  `json:"owner"`
	Epoch  uint64 `json:"epoch"`
	Expiry int64  `json:"expiry_unix_nano"`
	Held   bool   `json:"held"`
	Local  bool   `json:"local"`
}

// FleetInfo is the fleet view behind GET /v1/leases.
type FleetInfo struct {
	ID int32 `json:"id"`
	// Advertise is the address peers reach this member's peer plane at —
	// the value to put in their -peer flags. Peer addresses are also
	// learned dynamically from announcements, so a fleet bootstraps as
	// long as each member's address is known statically by at least one
	// other member.
	Advertise string        `json:"advertise,omitempty"`
	Peers     []int32       `json:"peers"`
	Leases    []LeaseStatus `json:"leases"`
}

// FleetLeases reports the store's current lease table, annotated with
// which shards this gateway serves locally. It returns ErrNoFleet on a
// single-gateway configuration.
func (g *Gateway) FleetLeases() (*FleetInfo, error) {
	f := g.fleet
	if f == nil {
		return nil, ErrNoFleet
	}
	snap, err := f.cfg.Store.Snapshot()
	if err != nil {
		return nil, err
	}
	now := time.Now().UnixNano()
	info := &FleetInfo{ID: f.cfg.ID, Advertise: f.advertise()}
	for _, id := range f.ids {
		if id != f.cfg.ID {
			info.Peers = append(info.Peers, id)
		}
	}
	for s := 0; s < g.Shards(); s++ {
		l := snap[int32(s)]
		info.Leases = append(info.Leases, LeaseStatus{
			Shard:  s,
			Owner:  l.Owner,
			Epoch:  l.Epoch,
			Expiry: l.Expiry,
			Held:   l.Held(now),
			Local:  l.Owner == f.cfg.ID && l.Held(now) && f.owns(s),
		})
	}
	return info, nil
}

// --- forwarding -------------------------------------------------------------

// forwardOp carries one client operation to the shard's owner and returns
// its response. One sequence number covers the whole operation: the frame
// is retransmitted (same seq) until a response arrives, the owner changes,
// or ctx expires, and receivers deduplicate executed operations by
// (origin, seq), so at-least-once delivery never double-applies a put.
// The second return is false when ownership arrived here mid-wait — the
// caller serves locally instead.
func (f *fleet) forwardOp(ctx context.Context, shard int, op uint8, key string, value []byte) (wire.PeerForwardResp, bool, error) {
	f.mu.Lock()
	f.seq++
	seq := f.seq
	ch := make(chan wire.PeerForwardResp, 1)
	f.pending[seq] = ch
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.pending, seq)
		f.mu.Unlock()
	}()
	msg := wire.PeerForward{Seq: seq, Op: op, Key: key, Value: value, ReplyAddr: f.advertise()}
	ticker := time.NewTicker(rpcRetryInterval)
	defer ticker.Stop()
	refreshed := false
	for {
		now := time.Now().UnixNano()
		f.mu.Lock()
		l := f.leases[int32(shard)]
		f.mu.Unlock()
		switch {
		case l.Owner == f.cfg.ID && l.Held(now):
			// Ownership arrived here mid-wait (we claimed the shard from
			// the owner we were forwarding to). If that owner executed
			// this very forward before dying, its durable record came
			// over with the adoption — replay it rather than applying
			// the operation a second time.
			f.mu.Lock()
			e, ok := f.dedup[forwardKey{origin: f.cfg.ID, seq: seq}]
			var done bool
			var recorded wire.PeerForwardResp
			if ok {
				done, recorded = e.done, e.resp
			}
			f.mu.Unlock()
			if done {
				return recorded, true, nil
			}
			return wire.PeerForwardResp{}, false, nil
		case l.Held(now):
			// A Send failure is a dropped frame, not a failed operation: a
			// transport that reports dead peers synchronously (channet does,
			// tcpnet often cannot) surfaces it exactly when the owner has
			// died with its lease outstanding — the case forwarding must
			// ride out, not fail. The retry ticker re-resolves ownership
			// once the lease lapses; ctx bounds the wait either way.
			f.node.Send(peerProcID(l.Owner), msg)
		default:
			// No live owner known: one store read per retry interval, then
			// wait — the renew loop (ours or a peer's) claims it.
			if !refreshed {
				f.refresh()
				refreshed = true
				continue
			}
		}
		select {
		case resp := <-ch:
			if resp.NotOwner {
				// The receiver's cache and ours disagree; reload from the
				// store and retry (possibly toward a new owner, which
				// dedups independently per receiver).
				f.refresh()
				refreshed = true
				continue
			}
			return resp, true, nil
		case <-ticker.C:
			refreshed = false
		case <-ctx.Done():
			return wire.PeerForwardResp{}, true, fmt.Errorf("gateway: key %q: forwarding to shard %d's owner: %w", key, shard, ctx.Err())
		}
	}
}

// forwardPut is Put's remote half: the op-lifecycle bookkeeping of a local
// operation around one forwarded write.
func (g *Gateway) forwardPut(ctx context.Context, key string, shard int, value []byte) (tag.Tag, error) {
	if err := g.beginOp(); err != nil {
		return tag.Tag{}, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	resp, forwarded, err := g.fleet.forwardOp(ctx, shard, wire.PeerOpPut, key, value)
	if err != nil {
		return tag.Tag{}, g.opErr(err)
	}
	if !forwarded {
		return g.putLocal(ctx, key, value)
	}
	if resp.Err != "" {
		return tag.Tag{}, fmt.Errorf("gateway: key %q: owner gateway: %s", key, resp.Err)
	}
	return resp.Tag, nil
}

// forwardGet is Get's remote half.
func (g *Gateway) forwardGet(ctx context.Context, key string, shard int) ([]byte, tag.Tag, error) {
	if err := g.beginOp(); err != nil {
		return nil, tag.Tag{}, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	resp, forwarded, err := g.fleet.forwardOp(ctx, shard, wire.PeerOpGet, key, nil)
	if err != nil {
		return nil, tag.Tag{}, g.opErr(err)
	}
	if !forwarded {
		return g.getLocal(ctx, key)
	}
	if resp.Err != "" {
		return nil, tag.Tag{}, fmt.Errorf("gateway: key %q: owner gateway: %s", key, resp.Err)
	}
	return resp.Value, resp.Tag, nil
}

// --- peer-plane handler -----------------------------------------------------

// handlePeer is the peer endpoint's delivery handler. Lease announcements
// and responses are absorbed inline; forwarded operations execute on their
// own goroutine — the handler runs on the transport's delivery loop, and a
// quorum operation parked there would deadlock against the responses the
// same loop must deliver.
func (f *fleet) handlePeer(env wire.Envelope) {
	switch msg := env.Msg.(type) {
	case wire.LeaseClaim:
		// Announcements naming US as owner are dropped (not just redundant:
		// self-ownership must only enter the cache via tick, post-adoption).
		if msg.Owner != f.cfg.ID {
			f.noteLease(msg.Shard, catalog.Lease{Owner: msg.Owner, Epoch: msg.Epoch, Expiry: msg.Expiry}, msg.ReplyAddr)
		}
		f.node.Send(env.From, wire.LeaseClaimResp{Seq: msg.Seq, Shard: msg.Shard})
	case wire.LeaseRenew:
		if msg.Owner != f.cfg.ID {
			f.noteLease(msg.Shard, catalog.Lease{Owner: msg.Owner, Epoch: msg.Epoch, Expiry: msg.Expiry}, msg.ReplyAddr)
		}
		f.node.Send(env.From, wire.LeaseRenewResp{Seq: msg.Seq, Shard: msg.Shard})
	case wire.LeaseClaimResp, wire.LeaseRenewResp:
		// Announcements are fire-and-forget; the acks exist so a future
		// layer can track peer liveness, and are dropped here.
	case wire.PeerForward:
		f.handleForward(env.From, msg)
	case wire.PeerForwardResp:
		f.mu.Lock()
		ch := f.pending[msg.Seq]
		f.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg:
			default: // duplicate response of a retransmitted forward
			}
		}
	}
}

// handleForward deduplicates one incoming forwarded operation and launches
// its execution. NotOwner rejections are deliberately NOT recorded: they
// answer "who owns this now?", which must be re-evaluated per retransmit —
// replaying a stale rejection after winning the lease would livelock the
// origin.
func (f *fleet) handleForward(from wire.ProcID, msg wire.PeerForward) {
	origin := peerCtlBase - from.Index
	if msg.ReplyAddr != "" {
		f.mu.Lock()
		f.addrs[origin] = msg.ReplyAddr
		f.mu.Unlock()
	}
	key := forwardKey{origin: origin, seq: msg.Seq}
	f.mu.Lock()
	if e, ok := f.dedup[key]; ok {
		done, resp := e.done, e.resp
		f.mu.Unlock()
		if done {
			f.node.Send(from, resp)
		}
		// In flight: drop the retransmit; a later one replays the answer.
		return
	}
	e := &forwardEntry{}
	f.dedup[key] = e
	f.dedupQ = append(f.dedupQ, key)
	f.evictForwardsLocked()
	f.mu.Unlock()
	f.fwdWG.Add(1)
	go f.executeForward(from, key, e, msg)
}

// evictForwardsLocked bounds the dedup cache, oldest completed entries
// first; in-flight entries are kept (evicting one would allow a duplicate
// execution). unrecordForward keeps dedupQ and dedup in lockstep, but the
// lookups here still take the two-value form: a stale queue key must skip,
// not panic. Callers hold f.mu.
func (f *fleet) evictForwardsLocked() {
	for len(f.dedup) > forwardDedupCap && len(f.dedupQ) > 0 {
		k := f.dedupQ[0]
		e, ok := f.dedup[k]
		if !ok {
			f.dedupQ = f.dedupQ[1:] // stale key: its entry was unrecorded
			continue
		}
		if !e.done {
			// Oldest entry still executing: rotate it to the back and stop
			// rather than spin — the cache briefly exceeds its cap.
			if len(f.dedupQ) == 1 {
				return
			}
			f.dedupQ = append(f.dedupQ[1:], k)
			if next, ok := f.dedup[f.dedupQ[0]]; ok && !next.done {
				return
			}
			continue
		}
		f.dedupQ = f.dedupQ[1:]
		delete(f.dedup, k)
	}
}

// primeForwards folds durable forward-execution records — from this
// gateway's own catalog at boot, or from a dead peer's at failover
// adoption — into the in-memory dedup cache as completed entries, so
// retransmits of forwards a previous incarnation (or the dead peer)
// already executed replay the recorded tag.
func (f *fleet) primeForwards(fw map[int32]map[uint64]catalog.ForwardExec) {
	f.mu.Lock()
	for origin, per := range fw {
		for seq, ex := range per {
			k := forwardKey{origin: origin, seq: seq}
			if _, ok := f.dedup[k]; ok {
				continue
			}
			f.dedup[k] = &forwardEntry{done: true, resp: wire.PeerForwardResp{Seq: seq, Tag: ex.Tag}}
			f.dedupQ = append(f.dedupQ, k)
		}
	}
	f.evictForwardsLocked()
	f.mu.Unlock()
}

// unrecordForward withdraws an in-flight dedup entry — NotOwner and failed
// executions answer per-retransmit and must not be replayed — from both
// the map and the eviction queue, so NotOwner/error churn can neither
// grow dedupQ without bound nor leave stale keys for eviction to trip
// over. Linear in the queue, which the dedup cap bounds.
func (f *fleet) unrecordForward(key forwardKey) {
	f.mu.Lock()
	delete(f.dedup, key)
	for i, k := range f.dedupQ {
		if k == key {
			f.dedupQ = append(f.dedupQ[:i], f.dedupQ[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// executeForward runs one forwarded operation locally and responds. The
// ownership gate runs here, not at the client API (putLocal/getLocal skip
// the fleet gate): a forward must never be forwarded again.
func (f *fleet) executeForward(from wire.ProcID, key forwardKey, e *forwardEntry, msg wire.PeerForward) {
	defer f.fwdWG.Done()
	g := f.g
	resp := wire.PeerForwardResp{Seq: msg.Seq}
	if !f.owns(g.ShardFor(msg.Key)) {
		resp.NotOwner = true
		// Unrecord: ownership answers are per-retransmit (see above).
		f.unrecordForward(key)
		f.node.Send(from, resp)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), forwardExecTimeout)
	defer cancel()
	switch msg.Op {
	case wire.PeerOpPut:
		t, err := g.putLocal(ctx, msg.Key, msg.Value)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Tag = t
			// Durable dedup, write-ahead of the response: should this
			// gateway die with the response in flight, the record rides
			// the catalog to the failover successor (or to this gateway's
			// own restart) and the origin's retransmit replays the tag
			// instead of re-applying the put under a new one. The only
			// remaining double-apply window is a crash between the write
			// committing at the nodes and this fsync — microseconds,
			// versus the whole response round-trip without the record. A
			// failing catalog degrades to in-memory dedup (logRecord
			// retains the error for CatalogErr) rather than failing the
			// operation.
			g.logRecord(catalog.Record{Type: catalog.TypeForwardDone,
				Origin: key.origin, Seq: key.seq, Shard: g.ShardFor(msg.Key), Tag: t})
		}
	case wire.PeerOpGet:
		v, t, err := g.getLocal(ctx, msg.Key)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Value = v
			resp.Tag = t
		}
	default:
		resp.Err = fmt.Sprintf("unknown forwarded op %d", msg.Op)
	}
	if resp.Err != "" {
		// Failed executions are answered but not recorded: the origin (or
		// its client) retries the operation afresh, and pinning a transient
		// error as this seq's permanent answer would make the retry loop
		// return it forever.
		f.unrecordForward(key)
		f.node.Send(from, resp)
		return
	}
	f.mu.Lock()
	e.resp = resp
	e.done = true
	f.mu.Unlock()
	f.node.Send(from, resp)
}

// --- failover adoption ------------------------------------------------------

// adoptPeer moves the durable state a dead peer held for the claimed
// shards (a shard → granted-epoch map) into this gateway: catalog
// bindings, remote-group registry entries, gateway-side objects, the
// lease store's data-ownership transfer, and the node-side re-adoption
// handshake. It returns the shards whose Store.Adopt succeeded — a shard
// fenced mid-adoption is omitted and must not be published. See the file
// header for the ordering argument.
func (f *fleet) adoptPeer(peerID int32, claims map[int32]uint64) (map[int32]bool, error) {
	infos, adopted, err := f.adoptDurable(peerID, claims)
	if err != nil {
		return nil, err
	}
	// Node handshake, outside adoptMu (it holds no gateway state, only
	// at-least-once RPCs): re-serve every adopted group under its unchanged
	// generation. Nodes keep their protocol state and learn this gateway's
	// client address; a node that stays silent is skipped (its group keeps
	// serving on the surviving quorum) and ReprovisionRemote finishes the
	// job later.
	g := f.g
	m := g.remote
	ctx, cancel := context.WithCancel(context.Background())
	stopWatch := context.AfterFunc(g.closeCtx, cancel)
	defer stopWatch()
	defer cancel()
	nss := make([]int32, 0, len(infos))
	for ns := range infos {
		nss = append(nss, ns)
	}
	sort.Slice(nss, func(i, j int) bool { return nss[i] < nss[j] })
	for _, ns := range nss {
		info := infos[ns]
		for _, n := range info.nodes {
			nctx, ncancel := context.WithTimeout(ctx, adoptNodeTimeout)
			m.serveNode(nctx, n.ID, ns, info)
			ncancel()
		}
	}
	return adopted, nil
}

// adoptDurable is adoptPeer's serialized half: everything that moves
// catalog records and gateway state, up to (not including) the node
// handshake. It returns the adopted groups' registry entries and the set
// of shards whose data ownership actually transferred.
func (f *fleet) adoptDurable(peerID int32, claims map[int32]uint64) (map[int32]*remoteGroupInfo, map[int32]bool, error) {
	f.adoptMu.Lock()
	defer f.adoptMu.Unlock()
	g := f.g
	shards := make(map[int]bool, len(claims))
	for s := range claims {
		shards[int(s)] = true
	}
	dir := f.cfg.PeerCatalog(peerID)
	if dir == "" {
		return nil, nil, fmt.Errorf("gateway: no catalog directory known for peer gateway %d", peerID)
	}
	peerCat, err := catalog.Open(dir)
	if err != nil {
		if errors.Is(err, catalog.ErrLocked) {
			return nil, nil, fmt.Errorf("%w (gateway %d)", errPeerAlive, peerID)
		}
		return nil, nil, fmt.Errorf("gateway: open peer gateway %d catalog: %w", peerID, err)
	}
	defer peerCat.Close()
	st := peerCat.State()

	// Select the transferred bindings: keys on the claimed shards, and the
	// groups they bind. A key bound to a group the peer's catalog no
	// longer holds is unrecoverable (the shape a torn peer catalog can
	// leave); it is deleted and restarts fresh on next use, exactly like a
	// catalog-less crash.
	type adoptedObj struct {
		key string
		obj catalog.Object
	}
	var objs []adoptedObj
	nsSet := make(map[int32]bool)
	lost := make(map[string]int)
	for key, o := range st.Objects {
		if !shards[o.Shard] {
			continue
		}
		if o.Shard >= g.Shards() {
			return nil, nil, fmt.Errorf("gateway: peer gateway %d binds key %q to shard %d, beyond this gateway's %d shards (mismatched fleet topologies?)", peerID, key, o.Shard, g.Shards())
		}
		if _, held := st.Groups[o.NS]; !held {
			lost[key] = o.Shard
			continue
		}
		objs = append(objs, adoptedObj{key, o})
		nsSet[o.NS] = true
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].key < objs[j].key })
	nss := make([]int32, 0, len(nsSet))
	for ns := range nsSet {
		nss = append(nss, ns)
	}
	sort.Slice(nss, func(i, j int) bool { return nss[i] < nss[j] })
	p := g.cfg.Params
	for _, ns := range nss {
		grp := st.Groups[ns]
		if int(grp.N1) != p.N1 || int(grp.N2) != p.N2 || int(grp.F1) != p.F1 || int(grp.F2) != p.F2 {
			return nil, nil, fmt.Errorf("gateway: peer gateway %d group %d has geometry (n1=%d,n2=%d,f1=%d,f2=%d), this gateway runs (n1=%d,n2=%d,f1=%d,f2=%d); refusing adoption",
				peerID, ns, grp.N1, grp.N2, grp.F1, grp.F2, p.N1, p.N2, p.F1, p.F2)
		}
	}

	// Own catalog first, while the peer catalog's flock is still held: the
	// generations (and the floor that keeps our allocator above every
	// generation the peer ever minted) must be durable here before any
	// node re-learns them from us, and before the peer catalog forgets
	// them — a crash between the two appends leaves duplicate references,
	// never none.
	ownRecs := []catalog.Record{{Type: catalog.TypeGenFloor, Gen: st.NextGen}}
	for _, ns := range nss {
		grp := st.Groups[ns]
		ownRecs = append(ownRecs, catalog.Record{
			Type: catalog.TypeGroupServe, NS: ns, Gen: grp.Gen,
			Nodes: grp.Nodes, Value: grp.Value, Tag: grp.Tag,
			N1: grp.N1, N2: grp.N2, F1: grp.F1, F2: grp.F2,
		})
	}
	for _, ao := range objs {
		ownRecs = append(ownRecs, catalog.Record{Type: catalog.TypeObjectSet, Key: ao.key, NS: ao.obj.NS, Shard: ao.obj.Shard})
		if sh, pinned := st.Placement[ao.key]; pinned {
			ownRecs = append(ownRecs, catalog.Record{Type: catalog.TypePlace, Key: ao.key, Shard: sh})
		}
	}
	// Forward-execution records ride along: a put the dead peer executed
	// whose response never reached its origin will be retransmitted — to
	// us, as the shard's next owner — and must be answered with the
	// recorded tag, not re-applied. (Replaying a committed response is
	// correct regardless of who owns the shard by then, so these are
	// filtered only by the claimed shards, not by adoption's outcome.)
	transferred := make(map[int32]map[uint64]catalog.ForwardExec)
	for origin, per := range st.Forwards {
		for seq, ex := range per {
			if !shards[ex.Shard] {
				continue
			}
			ownRecs = append(ownRecs, catalog.Record{Type: catalog.TypeForwardDone,
				Origin: origin, Seq: seq, Shard: ex.Shard, Tag: ex.Tag})
			if transferred[origin] == nil {
				transferred[origin] = make(map[uint64]catalog.ForwardExec)
			}
			transferred[origin][seq] = ex
		}
	}
	if err := g.logRecord(ownRecs...); err != nil {
		return nil, nil, fmt.Errorf("gateway: adopting gateway %d: own catalog: %w", peerID, err)
	}
	f.primeForwards(transferred)

	// Registry: the adopted generations enter the remote-group table, and
	// the incarnation allocator jumps past everything the peer ever
	// issued, so a reaped-and-recycled adopted namespace can never be
	// re-served under a generation some node still holds for peer-era
	// state. (Assignment, not increment: these generations are already
	// durable — in our catalog, as of the append above.)
	m := g.remote
	m.mu.Lock()
	if m.gen < st.NextGen {
		m.gen = st.NextGen
	}
	infos := make(map[int32]*remoteGroupInfo, len(nss))
	for _, ns := range nss {
		grp := st.Groups[ns]
		info := &remoteGroupInfo{gen: grp.Gen, nodes: grp.Nodes, seedValue: grp.Value, seedTag: grp.Tag}
		m.groups[ns] = info
		infos[ns] = info
	}
	m.mu.Unlock()

	// Gateway-side objects: pools and resolver entries around the adopted
	// namespaces, installed directly (the lease, not the router, brought
	// these keys here). Installed before the data-ownership transfer so
	// that from the instant a shard is adoptable-by-no-one-else it is also
	// servable here — and a duplicate install (a retried adoption) is
	// skipped by the exists check.
	for _, ao := range objs {
		sh := g.shardList()[ao.obj.Shard]
		grp, err := newRemoteGroup(m, ao.obj.NS)
		if err != nil {
			return nil, nil, fmt.Errorf("gateway: adopt %q: %w", ao.key, err)
		}
		obj, err := newObject(grp, ao.obj.NS, g.cfg.PoolSize)
		if err != nil {
			grp.Detach()
			return nil, nil, fmt.Errorf("gateway: adopt %q: %w", ao.key, err)
		}
		sh.mu.Lock()
		if _, exists := sh.objects[ao.key]; exists {
			sh.mu.Unlock()
			grp.Detach()
			continue
		}
		sh.objects[ao.key] = obj
		sh.mu.Unlock()
		if pin, pinned := st.Placement[ao.key]; pinned {
			g.route.mu.Lock()
			g.route.placement[ao.key] = pin
			g.route.mu.Unlock()
		}
	}

	// Data-ownership transfer: with the records durable in our catalog
	// (and the peer's still intact), flip each claimed shard's DataOwner
	// to us. A shard whose lease lapsed mid-adoption fails here and is
	// dropped — whoever fenced us finds DataOwner still pointing at the
	// peer's untouched catalog and re-adopts; our copies sit idle.
	adopted := make(map[int32]bool, len(claims))
	for s, epoch := range claims {
		if err := f.cfg.Store.Adopt(s, f.cfg.ID, epoch); err == nil {
			adopted[s] = true
		}
	}

	// Transfer out of the peer catalog — only the shards whose data
	// ownership moved; a namespace is drained only when every shard it
	// binds keys for was adopted (in practice namespaces are per-key, so
	// per-shard). Quarantines lead the batch: if a crash tears its tail,
	// the namespaces are already fenced while the bindings they protect
	// are at worst still present — duplicate, not dangling.
	nsDrained := make(map[int32]bool, len(nss))
	for _, ns := range nss {
		nsDrained[ns] = true
	}
	for _, ao := range objs {
		if !adopted[int32(ao.obj.Shard)] {
			nsDrained[ao.obj.NS] = false
		}
	}
	var peerRecs []catalog.Record
	for _, ns := range nss {
		if nsDrained[ns] {
			peerRecs = append(peerRecs, catalog.Record{Type: catalog.TypeNSQuarantine, NS: ns})
		}
	}
	for _, ns := range nss {
		if nsDrained[ns] {
			peerRecs = append(peerRecs, catalog.Record{Type: catalog.TypeGroupRetire, NS: ns})
		}
	}
	for _, ao := range objs {
		if !adopted[int32(ao.obj.Shard)] {
			continue
		}
		peerRecs = append(peerRecs, catalog.Record{Type: catalog.TypeObjectDel, Key: ao.key})
		if _, pinned := st.Placement[ao.key]; pinned {
			peerRecs = append(peerRecs, catalog.Record{Type: catalog.TypeUnplace, Key: ao.key})
		}
	}
	for key, sh := range lost {
		if adopted[int32(sh)] {
			peerRecs = append(peerRecs, catalog.Record{Type: catalog.TypeObjectDel, Key: key})
		}
	}
	if len(peerRecs) > 0 {
		if err := peerCat.Append(peerRecs...); err != nil {
			return nil, nil, fmt.Errorf("gateway: adopting gateway %d: peer catalog: %w", peerID, err)
		}
	}

	// Restrict the node handshake to the groups that actually moved.
	for ns := range infos {
		if !nsDrained[ns] {
			delete(infos, ns)
		}
	}
	return infos, adopted, nil
}
