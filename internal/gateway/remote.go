package gateway

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/erasure"
	core "github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// gatewayCtlIndex is the gateway's control-endpoint index. Node ids are
// constrained to be non-negative, so -1 can never collide with a node's
// control endpoint (a collision would make the gateway deliver its own
// provisioning requests to itself via the local short-circuit).
const gatewayCtlIndex = -1

// rpcRetryInterval is how often an unanswered provisioning request is
// retransmitted. The transport drops frames toward unreachable peers
// (crash-model semantics), so request/response reliability lives here, at
// the RPC layer.
const rpcRetryInterval = 500 * time.Millisecond

// ErrNoTopology is returned by remote-cluster operations on a gateway
// with no TCP shards.
var ErrNoTopology = errors.New("gateway: no remote topology configured")

// remoteManager owns everything gateway-side that real-network shards
// need: the tcpnet listener hosting client endpoints and the control
// endpoint, the resolver mapping namespaced ids onto node processes, the
// provisioning RPCs, and the registry of live remote groups (which doubles
// as the source reconcile re-serves from after a node restart). Groups
// name their nodes by id; the one address table is the topology's.
type remoteManager struct {
	net       *tcpnet.Network
	ctl       transport.Node
	advertise string
	params    core.Params
	code      erasure.Regenerating
	codeFP    uint64           // params.CodeFingerprint(), sent in every GroupServe
	bootValue []byte           // Config.InitialValue, the unseeded boot state
	nodes     map[int32]string // node id -> address (static topology; never mutated, read without mu)
	// log persists routing records to the gateway's catalog; nil when the
	// gateway has none. mint uses it write-ahead: a generation is durable
	// before any node can learn it.
	log func(...catalog.Record) error

	mu      sync.Mutex
	seq     uint64
	gen     uint64 // group-incarnation allocator, advanced only by mint; never reused, unlike namespaces
	pending map[uint64]chan wire.Message
	groups  map[int32]*remoteGroupInfo // live remote groups by namespace
	nextCID int32                      // rolling client-id allocator
	cids    map[int32]struct{}         // client ids currently bound to live pooled clients
	closed  bool
}

// remoteGroupInfo is what the manager remembers about one live remote
// group: enough to resolve its servers and to re-serve it (same
// incarnation, same boot seed) after a node restart.
type remoteGroupInfo struct {
	gen       uint64  // the incarnation carried by every serve of this group
	nodes     []int32 // node ids in assignment order
	seedValue []byte
	seedTag   tag.Tag
}

// NodeStatus is one node process's health as seen by ProbeRemoteNodes.
type NodeStatus struct {
	ID    int32  `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Groups is how many groups the node reports hosting; a live node
	// reporting fewer groups than the gateway placed on it (0 right after
	// a restart) needs ReprovisionRemote.
	Groups int32 `json:"groups"`
	// Servers is how many protocol servers (L1 + L2 slices) the node runs.
	Servers int32 `json:"servers"`
	// TemporaryBytes / PermanentBytes / OffloadQueueDepth are the node-wide
	// storage gauges carried back in the pong — the real occupancy of the
	// node process, summed over every group slice it hosts.
	TemporaryBytes    int64 `json:"temporary_bytes"`
	PermanentBytes    int64 `json:"permanent_bytes"`
	OffloadQueueDepth int64 `json:"offload_queue_depth"`
	// RTT is the control-plane round trip of the probe.
	RTT time.Duration `json:"rtt_ns"`
}

// newRemoteManager boots the gateway-side transport for a topology with
// TCP shards.
func newRemoteManager(t *Topology, params core.Params, code erasure.Regenerating, bootValue []byte) (*remoteManager, error) {
	codeFP, err := params.CodeFingerprint()
	if err != nil {
		return nil, err
	}
	m := &remoteManager{
		params:    params,
		code:      code,
		codeFP:    codeFP,
		bootValue: bootValue,
		nodes:     t.nodeTable(),
		pending:   make(map[uint64]chan wire.Message),
		groups:    make(map[int32]*remoteGroupInfo),
		cids:      make(map[int32]struct{}),
	}
	listen := t.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	net, err := tcpnet.NewNetwork(listen, tcpnet.Options{Resolver: m.resolve})
	if err != nil {
		return nil, fmt.Errorf("gateway: remote listener: %w", err)
	}
	m.net = net
	m.advertise = t.Advertise
	if m.advertise == "" {
		m.advertise = net.Addr()
	}
	ctl, err := net.Register(wire.ProcID{Role: wire.RoleControl, Index: gatewayCtlIndex}, m.handleCtl)
	if err != nil {
		net.Close()
		return nil, err
	}
	m.ctl = ctl
	return m, nil
}

func (m *remoteManager) close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	// Flush fire-and-forget retires enqueued by the groups' Close before
	// tearing the transport down; a node missing them (unreachable past
	// the drain budget) discards its stale groups at the next re-serve.
	m.net.Drain(2 * time.Second)
	return m.net.Close()
}

// resolve maps ids onto the topology: control endpoints by node id,
// namespaced L1/L2 servers by their group's placement onto node ids.
// Client ids are never resolved — the gateway hosts all clients locally,
// and the transport's local short-circuit reaches them first.
func (m *remoteManager) resolve(id wire.ProcID) (string, bool) {
	node := id.Index
	switch id.Role {
	case wire.RoleControl:
	case wire.RoleL1, wire.RoleL2:
		m.mu.Lock()
		info, ok := m.groups[id.Index/transport.NamespaceStride]
		m.mu.Unlock()
		if !ok {
			return "", false
		}
		node = info.nodes[nodehost.AssignedNode(int(id.Index%transport.NamespaceStride), len(info.nodes))]
	default:
		return "", false
	}
	addr, ok := m.nodes[node]
	return addr, ok
}

// nodeAddrs pairs node ids with their topology addresses, the form
// GroupServe and the reconcile request carry.
func (m *remoteManager) nodeAddrs(ids []int32) []wire.NodeAddr {
	out := make([]wire.NodeAddr, len(ids))
	for i, id := range ids {
		out[i] = wire.NodeAddr{ID: id, Addr: m.nodes[id]}
	}
	return out
}

// handleCtl completes pending RPCs from provisioning responses.
func (m *remoteManager) handleCtl(env wire.Envelope) {
	var seq uint64
	switch msg := env.Msg.(type) {
	case wire.GroupServeResp:
		seq = msg.Seq
	case wire.GroupRetireResp:
		seq = msg.Seq
	case wire.NodePong:
		seq = msg.Seq
	case wire.GroupStatsResp:
		seq = msg.Seq
	case wire.ElemInventoryResp:
		seq = msg.Seq
	case wire.ElemFetchResp:
		seq = msg.Seq
	case wire.ElemRepairResp:
		seq = msg.Seq
	default:
		return
	}
	m.mu.Lock()
	ch := m.pending[seq]
	m.mu.Unlock()
	if ch != nil {
		select {
		case ch <- env.Msg:
		default: // duplicate response of a retried request
		}
	}
}

// request performs one control RPC (see call) and checks that the node
// answered with a T.
func request[T wire.Message](ctx context.Context, m *remoteManager, nodeID int32, build func(seq uint64) wire.Message) (T, error) {
	resp, err := m.call(ctx, nodeID, build)
	t, ok := resp.(T)
	if err == nil && !ok {
		err = fmt.Errorf("gateway: node %d: unexpected response %T", nodeID, resp)
	}
	return t, err
}

// nodeTimeout bounds each node's share of a sweep over the fleet, and
// each request reconcile sends.
const nodeTimeout = 2 * time.Second

// eachNode runs fn once for every node id, all concurrently (the ids come
// from the topology, so there are few), each with a context bounded by
// nodeTimeout, and waits for them. A sweep so costs about one nodeTimeout
// however many nodes are down: the degraded fleets operators sweep to
// diagnose must not make the sweep itself crawl.
func eachNode(ctx context.Context, ids []int32, fn func(ctx context.Context, i int, id int32)) {
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nctx, cancel := context.WithTimeout(ctx, nodeTimeout)
			defer cancel()
			fn(nctx, i, id)
		}()
	}
	wg.Wait()
}

// call performs one at-least-once control RPC against a node: build
// stamps the request with the RPC's (single) seq, and the identical
// message is retransmitted every rpcRetryInterval until a response with
// that seq arrives or ctx expires. Requests are idempotent on the node
// side, and duplicate responses of a retried request are dropped by the
// pending-channel buffer, so retransmits are safe. (Do not allocate a
// fresh seq per retransmit: the pending map is keyed by the one seq.)
func (m *remoteManager) call(ctx context.Context, nodeID int32, build func(seq uint64) wire.Message) (wire.Message, error) {
	to := wire.ProcID{Role: wire.RoleControl, Index: nodeID}
	m.mu.Lock()
	m.seq++
	seq := m.seq
	ch := make(chan wire.Message, 1)
	m.pending[seq] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, seq)
		m.mu.Unlock()
	}()

	msg := build(seq)
	ticker := time.NewTicker(rpcRetryInterval)
	defer ticker.Stop()
	for {
		if err := m.ctl.Send(to, msg); err != nil {
			return nil, fmt.Errorf("gateway: node %d: %w", nodeID, err)
		}
		select {
		case resp := <-ch:
			return resp, nil
		case <-ticker.C: // retransmit: the frame may have been dropped
		case <-ctx.Done():
			return nil, fmt.Errorf("gateway: node %d control rpc: %w", nodeID, ctx.Err())
		}
	}
}

// serveGroup provisions namespace ns across a shard group's nodes under a
// fresh incarnation and registers it with the resolver. On failure the
// partially provisioned nodes are sent best-effort retires.
func (m *remoteManager) serveGroup(ctx context.Context, ns int32, nodes []int32, seed *groupSeed) error {
	info, err := m.mint(ns, nodes, seed)
	if err != nil {
		return err
	}

	// Register before provisioning: the gateway's clients may race the
	// final acks, so the resolver entry must exist before serveGroup
	// returns. The fresh gen is what lets a node still hosting a prior
	// incarnation of this recycled namespace (it missed the retire) tell
	// this group apart from a redundant re-serve and rebuild.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.groups[ns] = info
	m.mu.Unlock()

	for _, id := range nodes {
		if err := m.serveNode(ctx, id, ns, info); err != nil {
			m.retireGroup(ns)
			return fmt.Errorf("gateway: serve group %d: %w", ns, err)
		}
	}
	return nil
}

// mint allocates a fresh incarnation of namespace ns and logs its
// TypeGroupServe record. It is the only place the generation advances,
// and it returns the group only once that record is durable, so a node
// can never learn a generation a restarted gateway could re-issue for
// different state (it would wrongly keep stale servers). Until then the
// group is not registered either: registration would let a concurrent
// ReprovisionRemote serve it early. A logged generation whose serve
// never completes is an orphan the next restore retires.
func (m *remoteManager) mint(ns int32, nodes []int32, seed *groupSeed) (*remoteGroupInfo, error) {
	info := &remoteGroupInfo{nodes: nodes, seedValue: m.bootValue, seedTag: tag.Zero}
	if seed != nil {
		info.seedValue, info.seedTag = seed.value, seed.tag
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.gen++
	info.gen = m.gen
	m.mu.Unlock()
	if m.log != nil {
		if err := m.log(catalog.Record{
			Type: catalog.TypeGroupServe, NS: ns, Gen: info.gen,
			Nodes: m.nodeAddrs(nodes), Value: info.seedValue, Tag: info.seedTag,
			N1: int32(m.params.N1), N2: int32(m.params.N2),
			F1: int32(m.params.F1), F2: int32(m.params.F2),
		}); err != nil {
			return nil, fmt.Errorf("gateway: serve group %d: catalog: %w", ns, err)
		}
	}
	return info, nil
}

// serveNode sends one node its GroupServe for the given incarnation and
// awaits the ack.
func (m *remoteManager) serveNode(ctx context.Context, nodeID, ns int32, info *remoteGroupInfo) error {
	resp, err := m.call(ctx, nodeID, func(seq uint64) wire.Message {
		return wire.GroupServe{
			Seq:   seq,
			Group: ns,
			Gen:   info.gen,
			N1:    int32(m.params.N1), N2: int32(m.params.N2),
			F1: int32(m.params.F1), F2: int32(m.params.F2),
			Nodes:      m.nodeAddrs(info.nodes),
			ClientAddr: m.advertise,
			Value:      info.seedValue,
			Tag:        info.seedTag,
			Code:       m.codeFP,
		}
	})
	if err != nil {
		return err
	}
	switch sr, ok := resp.(wire.GroupServeResp); {
	case ok && sr.Err != "":
		return fmt.Errorf("gateway: node %d: %s", nodeID, sr.Err)
	case ok && sr.Code != m.codeFP:
		return fmt.Errorf("gateway: node %d did not confirm erasure code %016x: run one build on gateway and nodes", nodeID, m.codeFP)
	}
	return nil
}

// retireGroup forgets a group and fires best-effort retires at its nodes.
// No response is awaited: a node that misses the retire (down, or the
// frame dropped) discards the stale group when its namespace is
// re-served with a new configuration.
func (m *remoteManager) retireGroup(ns int32) {
	m.mu.Lock()
	info, ok := m.groups[ns]
	if ok {
		delete(m.groups, ns)
	}
	m.mu.Unlock()
	if ok {
		if m.log != nil {
			m.log(catalog.Record{Type: catalog.TypeGroupRetire, NS: ns})
		}
		m.fireRetire(ns, info.nodes)
	}
}

// fireRetire sends unacknowledged GroupRetire frames for ns to nodes.
func (m *remoteManager) fireRetire(ns int32, nodes []int32) {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	for _, id := range nodes {
		m.ctl.Send(wire.ProcID{Role: wire.RoleControl, Index: id}, wire.GroupRetire{Seq: seq, Group: ns})
	}
}

// live reports whether info is still the registered incarnation of ns.
func (m *remoteManager) live(ns int32, info *remoteGroupInfo) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[ns] == info
}

// clientID allocates a process id for one pooled client and marks it
// in-use until releaseClientIDs. Ids are unique among live clients *and*
// fresh relative to reaped ones until the allocator wraps, so a late
// frame from a reaped group's servers can never reach a successor group's
// client that happens to occupy the recycled namespace — the stale
// destination id is simply no longer registered. On wrap (after a
// NamespaceStride's worth of allocations) ids still held by live pooled
// clients are skipped: handing a live client's id to a second client
// would give two clients one tcpnet address and misroute responses.
func (m *remoteManager) clientID() (int32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for tries := int32(1); tries < transport.NamespaceStride; tries++ {
		m.nextCID++
		if m.nextCID >= transport.NamespaceStride {
			m.nextCID = 1
		}
		if _, inUse := m.cids[m.nextCID]; !inUse {
			m.cids[m.nextCID] = struct{}{}
			return m.nextCID, nil
		}
	}
	return 0, fmt.Errorf("gateway: all %d client ids are bound to live clients", transport.NamespaceStride-1)
}

// releaseClientIDs returns client ids to the allocator when their pooled
// clients are torn down (group reap, detach, or a failed pool build).
func (m *remoteManager) releaseClientIDs(ids []int32) {
	m.mu.Lock()
	for _, id := range ids {
		delete(m.cids, id)
	}
	m.mu.Unlock()
}

// reconcile brings every node that hosts a live remote group in line with
// the registry, all nodes concurrently. Each node gets one reconcile
// request — a bulk GroupStats carrying the code fingerprint and the
// topology — whose answer lists the (namespace, generation) pairs it
// hosts, then one GroupServe for each of its groups it lacks or holds
// under another generation. A node that kept its groups keeps their state
// and learns the current addresses; one that lost them (a restart)
// rebuilds at each group's boot seed — safe within the paper's fault
// budget (at most f1 L1 / f2 L2 servers of any group per concurrently
// restarted node), as a quorum of survivors holds every committed write.
// An older node answers without generations: gen 0 is never minted, so
// all its groups are re-served.
//
// It returns how many groups now run at their generation on all their
// nodes, how many GroupServes it sent, and one error per node it could
// not bring in line. A node's first failure ends its part. A node that
// holds groups at their generation but does not echo the code fingerprint
// runs another code: it is reported and sent nothing.
func (m *remoteManager) reconcile(ctx context.Context) (adopted, served int, errs []error) {
	m.mu.Lock()
	groups := maps.Clone(m.groups)
	m.mu.Unlock()
	byNode := make(map[int32][]int32) // node id -> namespaces placed on it
	for ns, info := range groups {
		for j, id := range info.nodes {
			if !slices.Contains(info.nodes[:j], id) {
				byNode[id] = append(byNode[id], ns)
			}
		}
	}
	ids := slices.Sorted(maps.Keys(byNode))
	topology := m.nodeAddrs(slices.Sorted(maps.Keys(m.nodes)))
	type nodeResult struct {
		served int
		failed []int32 // namespaces left unconfirmed on the node
		err    error
	}
	results := make([]nodeResult, len(ids))
	eachNode(ctx, ids, func(nctx context.Context, i int, id int32) {
		r := &results[i]
		st, err := request[wire.GroupStatsResp](nctx, m, id, func(seq uint64) wire.Message {
			return wire.GroupStats{Seq: seq, Group: wire.AllGroups, ReplyAddr: m.advertise, Code: m.codeFP, Nodes: topology}
		})
		hosted := make(map[int32]uint64, len(st.Groups))
		for _, g := range st.Groups {
			hosted[g.Group] = g.Gen
		}
		var todo []int32 // namespaces the node lacks at their generation
		for _, ns := range byNode[id] {
			if hosted[ns] != groups[ns].gen {
				todo = append(todo, ns)
			}
		}
		if err == nil && st.Code != m.codeFP && len(todo) < len(byNode[id]) {
			err = fmt.Errorf("gateway: node %d did not confirm erasure code %016x: run one build on gateway and nodes", id, m.codeFP)
		}
		if err != nil {
			r.failed, r.err = byNode[id], err
			return
		}
		slices.Sort(todo)
		for k, ns := range todo {
			info := groups[ns]
			if !m.live(ns, info) {
				continue // retired since the snapshot: never resurrect it
			}
			sctx, cancel := context.WithTimeout(ctx, nodeTimeout)
			err := m.serveNode(sctx, id, ns, info)
			cancel()
			if err != nil {
				r.failed, r.err = todo[k:], err
				return
			}
			r.served++
			if !m.live(ns, info) {
				// Retired while we served it: the retire may have lost the
				// race to this node, so fire another.
				m.fireRetire(ns, []int32{id})
			}
		}
	})
	unconfirmed := make(map[int32]bool)
	for i, r := range results {
		served += r.served
		for _, ns := range r.failed {
			unconfirmed[ns] = true
		}
		if r.err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", ids[i], r.err))
		}
	}
	return len(groups) - len(unconfirmed), served, errs
}

// remoteGroup is a group interface implementation whose servers live in
// node processes; only the pooled clients run gateway-side, registered on
// the manager's tcpnet listener under the group's namespace.
type remoteGroup struct {
	mgr  *remoteManager
	ns   int32
	view *transport.NamespacedNetwork

	mu      sync.Mutex
	writers map[int32]*core.Writer
	readers map[int32]*core.Reader
	cids    []int32 // manager client ids held by the pooled clients

	// Cached storage gauges, refreshed by sampling the group's nodes over
	// the control plane (refresh / Gateway.SyncRemoteStats) and read by
	// the group interface's probes — which run under shard locks and must
	// not block on RPCs.
	gaugeTemp    atomic.Int64
	gaugePerm    atomic.Int64
	gaugeOffload atomic.Int64
}

var _ group = (*remoteGroup)(nil)

func newRemoteGroup(mgr *remoteManager, ns int32) (*remoteGroup, error) {
	view, err := transport.Namespace(mgr.net, ns)
	if err != nil {
		return nil, err
	}
	return &remoteGroup{
		mgr:     mgr,
		ns:      ns,
		view:    view,
		writers: make(map[int32]*core.Writer),
		readers: make(map[int32]*core.Reader),
	}, nil
}

// Writer implements group. The pool slot wid maps to a manager-unique
// process id (see remoteManager.clientID), so recycled namespaces never
// resurrect a predecessor's client addresses.
func (r *remoteGroup) Writer(wid int32) (*core.Writer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.writers[wid]; ok {
		return w, nil
	}
	cid, err := r.mgr.clientID()
	if err != nil {
		return nil, err
	}
	w, err := core.RegisterWriter(r.view, r.mgr.params, cid)
	if err != nil {
		r.mgr.releaseClientIDs([]int32{cid})
		return nil, err
	}
	r.writers[wid] = w
	r.cids = append(r.cids, cid)
	return w, nil
}

// Reader implements group.
func (r *remoteGroup) Reader(rid int32) (*core.Reader, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rd, ok := r.readers[rid]; ok {
		return rd, nil
	}
	cid, err := r.mgr.clientID()
	if err != nil {
		return nil, err
	}
	rd, err := core.RegisterReader(r.view, r.mgr.params, cid, r.mgr.code)
	if err != nil {
		r.mgr.releaseClientIDs([]int32{cid})
		return nil, err
	}
	r.readers[rid] = rd
	r.cids = append(r.cids, cid)
	return rd, nil
}

// CrashL1 implements group. Remote servers are real processes — crash
// them for real (kill the node); in-process crash injection does not
// apply, matching tcpnet's lack of a Crasher.
func (r *remoteGroup) CrashL1(int) {}

// CrashL2 implements group.
func (r *remoteGroup) CrashL2(int) {}

// TemporaryStorageBytes implements group: the last control-plane sample
// of the group's L1 occupancy (see refresh / Gateway.SyncRemoteStats);
// zero until the first sample.
func (r *remoteGroup) TemporaryStorageBytes() int64 { return r.gaugeTemp.Load() }

// PermanentStorageBytes implements group (sampled, as above).
func (r *remoteGroup) PermanentStorageBytes() int64 { return r.gaugePerm.Load() }

// OffloadQueueDepth implements group (sampled, as above).
func (r *remoteGroup) OffloadQueueDepth() int64 { return r.gaugeOffload.Load() }

// sampleStats refreshes the cached gauges of the given remote groups
// (keyed by namespace) with one bulk GroupStats RPC per distinct node —
// O(nodes) round trips regardless of how many groups are live. Each
// node answers for the server slices it hosts; summing over nodes yields
// each group's occupancy. A node that no longer hosts a group (restarted,
// not yet reprovisioned) simply omits it. An unreachable node does not
// abort the sweep: the remaining nodes are still sampled, gauges are
// stored only for groups whose entire node set answered (a partial sum
// would read as missing data), and the first failure is returned at the
// end — so a single dead node never freezes the healthy nodes' gauges.
func (m *remoteManager) sampleStats(ctx context.Context, targets map[int32]remoteTarget) error {
	groupNodes := make(map[int32][]int32, len(targets))
	nodeIDs := make(map[int32]bool)
	m.mu.Lock()
	for ns := range targets {
		if info := m.groups[ns]; info != nil {
			groupNodes[ns] = info.nodes
			for _, id := range info.nodes {
				nodeIDs[id] = true
			}
		}
	}
	m.mu.Unlock()
	ids := slices.Sorted(maps.Keys(nodeIDs))
	resps := make([]wire.GroupStatsResp, len(ids))
	errs := make([]error, len(ids))
	eachNode(ctx, ids, func(ctx context.Context, i int, id int32) {
		resps[i], errs[i] = request[wire.GroupStatsResp](ctx, m, id, func(seq uint64) wire.Message {
			return wire.GroupStats{Seq: seq, Group: wire.AllGroups, ReplyAddr: m.advertise}
		})
	})

	failed := make(map[int32]bool)
	sums := make(map[int32]wire.GroupGauges, len(targets))
	for i, resp := range resps {
		if errs[i] != nil {
			failed[ids[i]] = true
			continue
		}
		for _, g := range resp.Groups {
			if _, wanted := targets[g.Group]; !wanted {
				continue
			}
			s := sums[g.Group]
			s.TemporaryBytes += g.TemporaryBytes
			s.PermanentBytes += g.PermanentBytes
			s.OffloadQueueDepth += g.OffloadQueueDepth
			sums[g.Group] = s
		}
	}
	for ns, t := range targets {
		nodes := groupNodes[ns]
		if len(nodes) == 0 || slices.ContainsFunc(nodes, func(id int32) bool { return failed[id] }) {
			continue // keep the previous sample rather than a partial sum
		}
		s := sums[ns] // zero value when no node hosts the group right now
		t.rg.gaugeTemp.Store(s.TemporaryBytes)
		t.rg.gaugePerm.Store(s.PermanentBytes)
		t.rg.gaugeOffload.Store(s.OffloadQueueDepth)
	}
	return cmp.Or(errs...)
}

// Close implements group: it unregisters the gateway-side clients,
// releases their ids and fires best-effort retires at the group's nodes.
func (r *remoteGroup) Close() error {
	err := r.detach()
	r.mgr.retireGroup(r.ns)
	return err
}

// Detach releases the gateway-side half of the group — client
// registrations and their ids — while leaving the node-held servers
// running and the manager's registry entry intact. It is the
// graceful-restart teardown: a gateway closing over a durable catalog
// detaches, and its successor re-adopts the same groups.
func (r *remoteGroup) Detach() error { return r.detach() }

func (r *remoteGroup) detach() error {
	err := r.view.Close()
	r.mu.Lock()
	cids := r.cids
	r.cids = nil
	r.mu.Unlock()
	r.mgr.releaseClientIDs(cids)
	return err
}
