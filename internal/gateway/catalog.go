package gateway

// This file is the gateway side of the durable routing catalog: the
// Catalog interface Config accepts, the write hooks that log every routing
// mutation, and the restore path New runs to resume a keyspace a previous
// gateway process left behind on a live node fleet.
//
// The durability contract has one strict rule and one reconciliation rule.
// Strict: a remote group's incarnation (generation) is persisted before
// any node can learn it (write-ahead in remoteManager.mint), so a
// restarted gateway can never re-issue a generation some node already
// holds for different state — the property that lets the per-node
// reconcile keep every group a node holds at its persisted generation.
// Reconciliation: every other record describes an in-memory transition,
// and restore repairs whatever a crash tore apart:
// a provisioned group with no key bound to it is retired, and a key bound
// to a group that no longer exists restarts fresh.
//
// The catalog records bindings, not what follows from them. Placement
// pins and the namespace allocator are derived at restore: a key is pinned
// exactly when its ObjectSet binding (a creation's or migration's commit
// point) names a shard the ring does not, and the allocator resumes one
// past the highest namespace a binding, group or quarantine names, with
// every unheld namespace below that free (deriveNamespaces).

import (
	"fmt"
	"sort"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/transport"
)

// Catalog is the durable routing catalog a gateway persists its routing
// plane into and restores it from; *catalog.File implements it. A nil
// Config.Catalog keeps all routing state in memory (the pre-catalog
// behavior: a gateway restart abandons the keyspace and node-held groups
// are discarded on re-serve).
type Catalog interface {
	// State returns the materialized routing state replay yields.
	State() catalog.State
	// Append durably logs routing mutations, in order, before returning.
	Append(...catalog.Record) error
}

// RestoreInfo reports what New recovered from the catalog.
type RestoreInfo struct {
	// Objects is the number of keys re-adopted onto live remote groups:
	// their node-held protocol state survived the gateway restart.
	Objects int
	// Dropped is the number of keys whose groups died with the previous
	// process (sim-backend groups live in gateway memory); those keys
	// restart at the initial value on next use.
	Dropped int
	// Orphans is the number of provisioned-but-unbound remote groups
	// (a crash between provisioning and key installation) retired.
	Orphans int
	// AdoptedGroups is the number of remote groups that, after the
	// per-node reconcile, run under their persisted generations on every
	// one of their nodes.
	AdoptedGroups int
	// AdoptErrors lists, one line each, the nodes the reconcile could not
	// bring in line: silent, or running another erasure code. Their groups
	// keep serving on the surviving quorum, and ReprovisionRemote
	// completes the job once the nodes return.
	AdoptErrors []string
}

// RestoreInfo returns what New recovered from the catalog, or nil when the
// gateway was built without one (or with an empty one).
func (g *Gateway) RestoreInfo() *RestoreInfo { return g.restoreInfo }

// CatalogErr returns the first error the catalog reported when logging a
// routing mutation, or nil. A failing catalog does not stop the gateway —
// operations keep serving — but persistence is degraded and a restart may
// lose routing state logged after the failure; operators should treat a
// non-nil value as a page.
func (g *Gateway) CatalogErr() error {
	g.catMu.Lock()
	defer g.catMu.Unlock()
	return g.catErr
}

// logRecord appends records to the catalog, if one is configured. The
// first failure is retained for CatalogErr; later appends are still
// attempted (a transient full disk may clear).
//
// Several call sites run under route.mu (install, the migration swap),
// which serializes routing behind the fsync for that append. That is a
// deliberate trade: appending outside the lock would let a concurrent
// migration's records land before a creation's for the same key,
// replaying into a binding for a group that was already retired. Routing
// mutations are control-plane-rare next to operations, which only take
// route.mu.RLock and never log.
func (g *Gateway) logRecord(recs ...catalog.Record) error {
	if g.cfg.Catalog == nil {
		return nil
	}
	err := g.cfg.Catalog.Append(recs...)
	if err != nil {
		g.catMu.Lock()
		if g.catErr == nil {
			g.catErr = err
		}
		g.catMu.Unlock()
	}
	return err
}

// restoreTimeout bounds the whole reconcile New runs when the catalog
// holds live remote groups. Each request in it is bounded by nodeTimeout:
// a node that stays silent past one is skipped (ReprovisionRemote
// finishes the job later), its groups keep serving on the surviving
// quorum, and RestoreInfo reports it.
const restoreTimeout = 30 * time.Second

// restoreFromCatalog rebuilds the routing plane from a persisted state.
// It runs inside New, before any operation can start, so it mutates the
// routing structures directly. Corrective records are appended as it
// reconciles, leaving the catalog describing exactly the state the
// gateway actually resumed.
func (g *Gateway) restoreFromCatalog(st catalog.State) (*RestoreInfo, error) {
	info := &RestoreInfo{}
	shardCount := len(g.route.shards)

	// Refuse before touching anything the fleet still holds. Dropping a
	// node-held key is irreversible at the *next* restart (its group gets
	// retired as an orphan), so a configuration that cannot adopt the
	// catalog's remote groups — a forgotten -topology, or a changed group
	// geometry pairing new clients with old servers — must fail loudly
	// here instead of quietly rewriting the catalog.
	if len(st.Groups) > 0 && g.remote == nil {
		return nil, fmt.Errorf("gateway: catalog describes %d node-held groups but no tcp topology is configured; refusing to restore (pass the original -topology, or use a fresh catalog directory for a sim-only gateway)", len(st.Groups))
	}
	p := g.cfg.Params
	for ns, grp := range st.Groups {
		// Every GroupServe record carries its geometry (Params.Validate
		// rejects zeros), so a zero here means a corrupt or hand-edited
		// catalog — refuse it like any other mismatch rather than adopt
		// under guessed parameters.
		if int(grp.N1) != p.N1 || int(grp.N2) != p.N2 || int(grp.F1) != p.F1 || int(grp.F2) != p.F2 {
			return nil, fmt.Errorf("gateway: catalog group %d was provisioned as (n1=%d, n2=%d, f1=%d, f2=%d) but the gateway is configured for (n1=%d, n2=%d, f1=%d, f2=%d); refusing to pair mismatched clients with the node-held servers",
				ns, grp.N1, grp.N2, grp.F1, grp.F2, p.N1, p.N2, p.F1, p.F2)
		}
	}

	// Corrective records are collected and appended in one batch — one
	// fsync for the whole reconciliation instead of one per record.
	var recs []catalog.Record

	// Remote-group registry and the incarnation allocator. NextGen is one
	// past every persisted generation, so generations never repeat across
	// restarts — the invariant the same-gen re-adoption relies on.
	if g.remote != nil {
		g.remote.mu.Lock()
		g.remote.gen = st.NextGen
		for ns, grp := range st.Groups {
			// The addresses a GroupServe record holds are ignored: groups
			// name nodes by id, and the topology says where they live.
			info := &remoteGroupInfo{gen: grp.Gen, seedValue: grp.Value, seedTag: grp.Tag}
			for _, n := range grp.Nodes {
				info.nodes = append(info.nodes, n.ID)
			}
			g.remote.groups[ns] = info
		}
		g.remote.mu.Unlock()
	}

	// Objects. A key whose group lives in node processes is re-adopted:
	// its gateway-side half (client pools, resolver entry) is rebuilt
	// around the same namespace and the node-held servers keep their
	// state. A key whose group lived in this process's memory cannot be
	// recovered — it is dropped and restarts at the initial value.
	boundNS := make(map[int32]bool)
	keys := make([]string, 0, len(st.Objects))
	for key := range st.Objects {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic restore order
	for _, key := range keys {
		o := st.Objects[key]
		adoptable := false
		if o.Shard >= 0 && o.Shard < shardCount && g.remote != nil {
			if _, isTCP := g.route.shards[o.Shard].be.(tcpBackend); isTCP {
				g.remote.mu.Lock()
				_, live := g.remote.groups[o.NS]
				g.remote.mu.Unlock()
				adoptable = live
			}
		}
		if !adoptable {
			if _, held := st.Groups[o.NS]; held {
				// The group is alive on the fleet but this configuration
				// cannot reach it (shard index gone, or no longer a tcp
				// shard): same refusal rationale as above.
				return nil, fmt.Errorf("gateway: catalog binds key %q to node-held group %d on shard %d, which the configured topology cannot adopt; refusing to drop recoverable state (restore the original topology, or migrate the key before reconfiguring)", key, o.NS, o.Shard)
			}
			// A dropped key is not pinned: its group held nothing that
			// survived, so it reverts to the ring.
			info.Dropped++
			recs = append(recs, catalog.Record{Type: catalog.TypeObjectDel, Key: key})
			continue
		}
		sh := g.route.shards[o.Shard]
		grp, err := newRemoteGroup(g.remote, o.NS)
		if err != nil {
			return nil, fmt.Errorf("gateway: restore %q: %w", key, err)
		}
		obj, err := newObject(grp, o.NS, g.cfg.PoolSize)
		if err != nil {
			// Detach, never Close: Close would retire the group — catalog
			// record and node-held servers both — turning a transient
			// failure into permanent loss of a recoverable key. Detach
			// releases only this process's half; the failed New leaves the
			// catalog and node fleet exactly as found for the retried restart.
			grp.Detach()
			return nil, fmt.Errorf("gateway: restore %q: %w", key, err)
		}
		sh.objects[key] = obj
		boundNS[o.NS] = true
		g.placeLocked(key, o.Shard)
		info.Objects++
	}

	// Orphan remote groups: provisioned (their generation is persisted,
	// nodes may host them) but bound to no key — a crash between
	// provisioning and installation. Retire them.
	if g.remote != nil {
		type orphan struct {
			ns   int32
			info *remoteGroupInfo
		}
		var orphans []orphan
		g.remote.mu.Lock()
		for ns, gi := range g.remote.groups {
			if !boundNS[ns] {
				orphans = append(orphans, orphan{ns, gi})
			}
		}
		for _, o := range orphans {
			delete(g.remote.groups, o.ns)
		}
		g.remote.mu.Unlock()
		sort.Slice(orphans, func(i, j int) bool { return orphans[i].ns < orphans[j].ns })
		for _, o := range orphans {
			recs = append(recs, catalog.Record{Type: catalog.TypeGroupRetire, NS: o.ns})
			g.remote.fireRetire(o.ns, o.info.nodes)
			info.Orphans++
		}
	}

	// Namespace allocator. Every group still registered is bound, so the
	// namespaces of dropped keys and retired orphans come out free.
	g.ns.next, g.ns.free = deriveNamespaces(&st, boundNS)
	g.logRecord(recs...)
	return info, nil
}

// deriveNamespaces rebuilds the namespace allocator from a replayed
// catalog state. next is one past the highest namespace an object, a group
// or a quarantine record names (0 when none does); free lists every
// namespace below next that live does not hold and that is not
// quarantined. A namespace that no record names is safe to hand out again:
// node-side state only ever exists under a durable GroupServe, and
// generations never repeat.
func deriveNamespaces(st *catalog.State, live map[int32]bool) (next int32, free []int32) {
	bump := func(ns int32) {
		if ns >= 0 && ns < transport.MaxNamespaceGroups && ns >= next {
			next = ns + 1
		}
	}
	quarantined := make(map[int32]bool, len(st.Quarantine))
	for _, ns := range st.Quarantine {
		quarantined[ns] = true
		bump(ns)
	}
	for ns := range st.Groups {
		bump(ns)
	}
	for _, o := range st.Objects {
		bump(o.NS)
	}
	for ns := int32(0); ns < next; ns++ {
		if !live[ns] && !quarantined[ns] {
			free = append(free, ns)
		}
	}
	return next, free
}
