// Package nodehost runs the server side of a real-network LDS deployment:
// one Host per process (cmd/lds-node) owns a TCP listener and hosts the
// L1 and L2 servers of any number of shard groups, provisioned at runtime
// by a gateway's registration handshake (wire.GroupServe / GroupRetire /
// NodePing over the ordinary transport).
//
// A shard group is a set of node processes that together run full LDS
// clusters, one per namespaced group (= one per key of the gateway shard
// the group backs). Server placement is deterministic: within a group
// whose topology lists the nodes n_0..n_{m-1}, server L1/i and server
// L2/i run on node n_{i mod m}, so every participant — the gateway's
// resolver, each node's resolver, and the provisioning handshake — derives
// the same placement from the same node list without further coordination
// (see AssignedNode).
//
// Groups name their nodes by id. The Host's resolver routes L1/L2 ids
// through one id→address table, writer/reader ids to the one gateway
// address, and control ids to wherever a handshake last told us the sender
// lives. No static address book: the table is merged from GroupServe node
// lists and the gateway's reconcile (wire.GroupStats with a Code), and
// the gateway address moves only with a message that carried this node's
// own code fingerprint, so a gateway of another code gets no data replies.
//
// A restarted node comes back empty (crash-stop: its servers' state is
// gone) and lists no groups to the gateway's reconcile, which re-serves
// the lost groups at their boot seeds. That is safe as long as
// the nodes restarted concurrently host at most f1 L1 and f2 L2 servers
// of any one group — the paper's fault budget, which a placement of one
// L1 and one L2 server per node (m = n1 = n2 nodes) meets for a single
// node restart.
package nodehost

import (
	"errors"
	"fmt"
	"sync"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// ErrClosed is returned by operations on a closed host.
var ErrClosed = errors.New("nodehost: closed")

// AssignedNode returns the position in a group's node list that hosts
// server index i of either layer: round-robin, L1/i and L2/i on node
// i mod m. Shared by the host (to pick its own servers) and the gateway
// resolver (to route to them).
func AssignedNode(serverIndex, numNodes int) int { return serverIndex % numNodes }

// Options tunes a Host.
type Options struct {
	// Transport is passed to the underlying tcpnet network (Book and
	// Resolver are owned by the host and ignored).
	Transport tcpnet.Options
	// Log, when non-nil, receives one line per provisioning event.
	Log func(format string, args ...any)
	// WrapNet, when non-nil, wraps the host's network before any endpoint
	// registers on it. It exists for chaos tests (e.g. the fault-injection
	// wrapper in internal/transport/faultnet) and must preserve the
	// transport contract apart from the faults it deliberately injects.
	WrapNet func(transport.Network) transport.Network
}

// Host is one node process's server runtime.
type Host struct {
	id   int32
	net  *tcpnet.Network
	reg  transport.Network // net, possibly wrapped by Options.WrapNet
	ctl  transport.Node
	logf func(format string, args ...any)

	mu       sync.RWMutex
	groups   map[int32]*hostedGroup
	addrs    map[int32]string       // node id -> address, merged from GroupServe.Nodes and reconciles
	gateway  string                 // where client (writer/reader) replies go
	ctlAddrs map[wire.ProcID]string // control peers learned from handshakes
	codes    map[lds.Params]hostedCode
	closed   bool
}

// hostedCode is the storage code for one geometry with its fingerprint.
type hostedCode struct {
	code erasure.Regenerating
	fp   uint64
}

// hostedGroup is this node's slice of one namespaced LDS cluster.
type hostedGroup struct {
	gen     uint64 // incarnation (wire.GroupServe.Gen): namespaces recycle, gens never repeat
	view    *transport.NamespacedNetwork
	params  lds.Params
	nodes   []int32 // node ids in assignment order; addresses live in Host.addrs
	servers int     // how many servers this node runs for the group
	// l1s/l2s retain the servers for the GroupStats and repair RPCs (both
	// safe while traffic flows).
	l1s []*lds.L1Proc
	l2s []*lds.L2Proc
}

// gauges sums the group's storage gauges over this node's servers and
// names its generation; the caller fills in the namespace.
func (g *hostedGroup) gauges() wire.GroupGauges {
	gg := wire.GroupGauges{Gen: g.gen}
	for _, s := range g.l1s {
		gg.TemporaryBytes += s.TemporaryBytes()
		gg.OffloadQueueDepth += s.OffloadQueueDepth()
	}
	for _, s := range g.l2s {
		gg.PermanentBytes += s.StoredBytes()
	}
	return gg
}

// New starts a host with the given topology-wide node id, listening on
// listen (":0" picks a free port; use Addr). The control endpoint ctl/id
// is registered immediately; groups arrive via the handshake.
func New(listen string, nodeID int32, opts Options) (*Host, error) {
	if nodeID < 0 {
		return nil, fmt.Errorf("nodehost: node id %d, want >= 0", nodeID)
	}
	h := &Host{
		id:       nodeID,
		groups:   make(map[int32]*hostedGroup),
		addrs:    make(map[int32]string),
		ctlAddrs: make(map[wire.ProcID]string),
		codes:    make(map[lds.Params]hostedCode),
		logf:     opts.Log,
	}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	topts := opts.Transport
	topts.Resolver = h.resolve
	net, err := tcpnet.NewNetwork(listen, topts)
	if err != nil {
		return nil, err
	}
	h.net = net
	h.reg = transport.Network(net)
	if opts.WrapNet != nil {
		h.reg = opts.WrapNet(h.reg)
	}
	ctl, err := h.reg.Register(wire.ProcID{Role: wire.RoleControl, Index: nodeID}, h.handleCtl)
	if err != nil {
		net.Close()
		return nil, err
	}
	h.ctl = ctl
	return h, nil
}

// NodeID returns the host's topology-wide node id.
func (h *Host) NodeID() int32 { return h.id }

// Addr returns the bound listen address.
func (h *Host) Addr() string { return h.net.Addr() }

// Groups returns the number of groups currently hosted.
func (h *Host) Groups() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.groups)
}

// Servers returns the number of protocol servers currently running.
func (h *Host) Servers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var total int
	for _, g := range h.groups {
		total += g.servers
	}
	return total
}

// Close tears every hosted server down and closes the listener.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	views := make([]*transport.NamespacedNetwork, 0, len(h.groups))
	for _, g := range h.groups {
		views = append(views, g.view)
	}
	h.groups = make(map[int32]*hostedGroup)
	h.mu.Unlock()
	for _, v := range views {
		v.Close()
	}
	return h.net.Close()
}

// resolve is the host's tcpnet Resolver: it maps process ids onto the
// addresses the live topology implies.
func (h *Host) resolve(id wire.ProcID) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if id.Role == wire.RoleControl {
		addr, ok := h.ctlAddrs[id]
		return addr, ok
	}
	ns := id.Index / transport.NamespaceStride
	local := int(id.Index % transport.NamespaceStride)
	g, ok := h.groups[ns]
	if !ok {
		return "", false
	}
	switch id.Role {
	case wire.RoleL1, wire.RoleL2:
		addr, ok := h.addrs[g.nodes[AssignedNode(local, len(g.nodes))]]
		return addr, ok
	case wire.RoleWriter, wire.RoleReader:
		return h.gateway, h.gateway != ""
	}
	return "", false
}

// handleCtl is the control endpoint's actor: provisioning requests arrive
// here one at a time.
func (h *Host) handleCtl(env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.GroupServe:
		h.rememberCtl(env.From, m.ClientAddr)
		resp := wire.GroupServeResp{Seq: m.Seq, Group: m.Group}
		if err := h.serve(m); err != nil {
			resp.Err = err.Error()
			h.logf("nodehost %d: serve group %d: %v", h.id, m.Group, err)
		} else {
			resp.Code = m.Code // serve checked it is this node's code
		}
		h.ctl.Send(env.From, resp)
	case wire.GroupRetire:
		h.retire(m.Group)
		h.ctl.Send(env.From, wire.GroupRetireResp{Seq: m.Seq, Group: m.Group})
	case wire.NodePing:
		h.rememberCtl(env.From, m.ReplyAddr)
		h.ctl.Send(env.From, h.pong(m.Seq))
	case wire.GroupStats:
		h.rememberCtl(env.From, m.ReplyAddr)
		h.ctl.Send(env.From, h.stats(m))
	case wire.ElemInventory:
		h.rememberCtl(env.From, m.ReplyAddr)
		h.ctl.Send(env.From, h.inventory(m))
	case wire.ElemFetch:
		h.rememberCtl(env.From, m.ReplyAddr)
		h.ctl.Send(env.From, h.fetch(m))
	case wire.ElemRepair:
		h.rememberCtl(env.From, m.ReplyAddr)
		h.ctl.Send(env.From, h.repair(m))
	}
}

// eachLocked calls fn for the hosted group ns, or for every hosted group
// when ns is wire.AllGroups; h.mu held.
func (h *Host) eachLocked(ns int32, fn func(ns int32, g *hostedGroup)) {
	if ns != wire.AllGroups {
		if g, ok := h.groups[ns]; ok {
			fn(ns, g)
		}
		return
	}
	for ns, g := range h.groups {
		fn(ns, g)
	}
}

// inventory lists the (tag, digest) of every L2 element this node stores
// for the requested group(s). Like GroupStats, absent groups simply have
// no entry; the gateway's scrubber turns that into "missing".
func (h *Host) inventory(m wire.ElemInventory) wire.ElemInventoryResp {
	resp := wire.ElemInventoryResp{Seq: m.Seq}
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.eachLocked(m.Group, func(ns int32, g *hostedGroup) {
		inv := wire.GroupInventory{Group: ns}
		for _, s := range g.l2s {
			inv.Elems = append(inv.Elems, s.ElemStat())
		}
		resp.Groups = append(resp.Groups, inv)
	})
	return resp
}

// L2 returns the hosted L2 server with the given in-group index, or nil;
// tests and experiments use it too (corruption injection, state checks).
func (h *Host) L2(group, index int32) *lds.L2Proc {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.groups[group]
	if !ok {
		return nil
	}
	for _, s := range g.l2s {
		if s.ID().Index == index {
			return s
		}
	}
	return nil
}

// fetch serves one element's repair data: the whole stored element
// (FailedIndex == FullElement) or helper data toward a failed code index.
func (h *Host) fetch(m wire.ElemFetch) wire.ElemFetchResp {
	resp := wire.ElemFetchResp{Seq: m.Seq, Group: m.Group, Index: m.Index}
	s := h.L2(m.Group, m.Index)
	if s == nil {
		resp.Err = fmt.Sprintf("nodehost %d: group %d element %d not hosted", h.id, m.Group, m.Index)
		return resp
	}
	if m.FailedIndex == wire.FullElement {
		t, coded, valueLen := s.ElemData()
		resp.Tag, resp.Data, resp.ValueLen = t, coded, int32(valueLen)
		return resp
	}
	t, helper, valueLen, err := s.HelperToward(int(m.FailedIndex))
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Tag, resp.Data, resp.ValueLen = t, helper, int32(valueLen)
	return resp
}

// repair installs a regenerated element under the replace-unless-newer
// rule (see lds.L2Server.InstallRepair).
func (h *Host) repair(m wire.ElemRepair) wire.ElemRepairResp {
	resp := wire.ElemRepairResp{Seq: m.Seq, Group: m.Group, Index: m.Index}
	s := h.L2(m.Group, m.Index)
	if s == nil {
		resp.Err = fmt.Sprintf("nodehost %d: group %d element %d not hosted", h.id, m.Group, m.Index)
		return resp
	}
	resp.Installed = s.InstallRepair(m.Tag, m.Coded, int(m.ValueLen))
	return resp
}

// stats answers a GroupStats with the gauges and generation of each
// requested group this node hosts. A request carrying the fingerprint of
// a code this node serves with is a gateway's reconcile: the node echoes
// it and adopts the sender's topology and address. Any other Code moves
// nothing.
func (h *Host) stats(m wire.GroupStats) wire.GroupStatsResp {
	resp := wire.GroupStatsResp{Seq: m.Seq}
	if m.Code != 0 {
		h.mu.Lock()
		for _, c := range h.codes {
			if c.fp == m.Code {
				resp.Code = m.Code
				h.adoptLocked(m.Nodes, m.ReplyAddr)
			}
		}
		h.mu.Unlock()
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.eachLocked(m.Group, func(ns int32, g *hostedGroup) {
		gg := g.gauges()
		gg.Group = ns
		resp.Groups = append(resp.Groups, gg)
	})
	return resp
}

// adoptLocked merges nodes into the address table and sends client
// replies to gateway from now on; h.mu held, and the caller has checked
// that the message carried this node's code fingerprint.
func (h *Host) adoptLocked(nodes []wire.NodeAddr, gateway string) {
	for _, n := range nodes {
		h.addrs[n.ID] = n.Addr
	}
	if gateway != "" {
		h.gateway = gateway
	}
}

// pong builds the NodePing response: group/server counts plus the
// node-wide storage totals.
func (h *Host) pong(seq uint64) wire.NodePong {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pong := wire.NodePong{Seq: seq, Groups: int32(len(h.groups))}
	for _, g := range h.groups {
		gg := g.gauges()
		pong.Servers += int32(g.servers)
		pong.TemporaryBytes += gg.TemporaryBytes
		pong.PermanentBytes += gg.PermanentBytes
		pong.OffloadQueueDepth += gg.OffloadQueueDepth
	}
	return pong
}

func (h *Host) rememberCtl(from wire.ProcID, addr string) {
	if addr == "" {
		return
	}
	h.mu.Lock()
	h.ctlAddrs[from] = addr
	h.mu.Unlock()
}

// serve instantiates this node's slice of the described group. Re-serving
// an incarnation already hosted (same Gen) is idempotent; a different Gen
// for the same namespace replaces the old group outright — the namespace
// was recycled to a successor group and this node missed the retire while
// unreachable. Descriptions alone cannot make that call: two incarnations
// of one namespace routinely carry byte-identical geometry/node/seed
// descriptions while serving different keys.
func (h *Host) serve(m wire.GroupServe) error {
	params, err := lds.NewParams(int(m.N1), int(m.N2), int(m.F1), int(m.F2))
	if err != nil {
		return err
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("nodehost: group %d has no nodes", m.Group)
	}
	nodes := make([]int32, len(m.Nodes))
	myPos := -1
	for i, n := range m.Nodes {
		nodes[i] = n.ID
		if n.ID == h.id && myPos < 0 {
			myPos = i
		}
	}
	if myPos < 0 {
		return fmt.Errorf("nodehost: node %d is not in group %d's node list", h.id, m.Group)
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	code, err := h.codeLocked(params, m.Group, m.Code)
	if err != nil {
		h.mu.Unlock()
		return err
	}
	h.adoptLocked(m.Nodes, m.ClientAddr)
	if g, ok := h.groups[m.Group]; ok {
		if g.gen == m.Gen {
			if g.params != params {
				// One incarnation has exactly one geometry; a same-gen serve
				// with different params would pair mismatched clients with
				// the kept servers. Refuse rather than keep or rebuild —
				// the sender's configuration is wrong, not this node.
				h.mu.Unlock()
				return fmt.Errorf("nodehost: group %d gen %d is hosted as (n1=%d, n2=%d, f1=%d, f2=%d), refusing re-serve as (n1=%d, n2=%d, f1=%d, f2=%d)",
					m.Group, m.Gen, g.params.N1, g.params.N2, g.params.F1, g.params.F2,
					params.N1, params.N2, params.F1, params.F2)
			}
			// Idempotent re-serve of the same incarnation: keep the servers
			// and their state; the addresses were adopted above.
			h.mu.Unlock()
			return nil
		}
		delete(h.groups, m.Group)
		h.mu.Unlock()
		g.view.Close() // recycled namespace: replace the stale incarnation
		h.mu.Lock()
	}
	// Install the registry entry before registering servers: the servers'
	// first outbound sends need the resolver to know the group.
	view, err := transport.Namespace(h.reg, m.Group)
	if err != nil {
		h.mu.Unlock()
		return err
	}
	g := &hostedGroup{gen: m.Gen, view: view, params: params, nodes: nodes}
	h.groups[m.Group] = g
	h.mu.Unlock()

	fail := func(err error) error {
		h.mu.Lock()
		if h.groups[m.Group] == g {
			delete(h.groups, m.Group)
		}
		h.mu.Unlock()
		view.Close()
		return err
	}
	// Servers are built into locals and published under the lock at the
	// end, so concurrent Host readers (Servers, the stats handlers) never
	// observe a half-registered group.
	var (
		l1s []*lds.L1Proc
		l2s []*lds.L2Proc
	)
	for i := 0; i < params.N1; i++ {
		if AssignedNode(i, len(m.Nodes)) != myPos {
			continue
		}
		srv, err := lds.RegisterL1(view, params, i, code, m.Tag)
		if err != nil {
			return fail(err)
		}
		l1s = append(l1s, srv)
	}
	for i := 0; i < params.N2; i++ {
		if AssignedNode(i, len(m.Nodes)) != myPos {
			continue
		}
		srv, err := lds.RegisterL2(view, params, i, code, m.Value, m.Tag)
		if err != nil {
			return fail(err)
		}
		l2s = append(l2s, srv)
	}
	h.mu.Lock()
	g.l1s, g.l2s = l1s, l2s
	g.servers = len(l1s) + len(l2s)
	h.mu.Unlock()
	h.logf("nodehost %d: serving group %d gen %d (%d servers, %d nodes, seed tag %v)",
		h.id, m.Group, m.Gen, len(l1s)+len(l2s), len(m.Nodes), m.Tag)
	return nil
}

// codeLocked returns the storage code for params, cached, if fp -- the
// fingerprint group's GroupServe carries -- is its fingerprint; h.mu held.
func (h *Host) codeLocked(params lds.Params, group int32, fp uint64) (erasure.Regenerating, error) {
	c, ok := h.codes[params]
	if !ok {
		code, err := params.NewCode()
		if err != nil {
			return nil, err
		}
		own, err := params.CodeFingerprint()
		if err != nil {
			return nil, err
		}
		c = hostedCode{code, own}
		h.codes[params] = c
	}
	if fp != c.fp {
		return nil, fmt.Errorf("nodehost: group %d: the gateway's erasure code %016x is not this node's %016x: run one build on gateway and nodes", group, fp, c.fp)
	}
	return c.code, nil
}

// retire tears down this node's servers of a group; unknown groups are a
// no-op (retire is idempotent and may arrive after a restart).
func (h *Host) retire(group int32) {
	h.mu.Lock()
	g, ok := h.groups[group]
	if ok {
		delete(h.groups, group)
	}
	h.mu.Unlock()
	if ok {
		g.view.Close()
		h.logf("nodehost %d: retired group %d", h.id, group)
	}
}
