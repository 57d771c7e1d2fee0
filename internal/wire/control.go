package wire

import "github.com/lds-storage/lds/internal/tag"

// This file defines the deployment control plane: the messages a gateway's
// shard-group manager exchanges with node-host processes (cmd/lds-node,
// internal/nodehost) to provision, retire and health-check LDS groups over
// the real network. None of these messages belong to the paper's protocol;
// they ride the same transport so a deployment needs exactly one listener
// per process. Every request carries a Seq the sender uses to match the
// response, because links need not be FIFO and responses of retried
// requests may arrive late.

// NodeAddr names one node-host process of a shard group: its topology-wide
// node id (the index of its control endpoint, ctl/ID) and its listen
// address.
type NodeAddr struct {
	ID   int32
	Addr string
}

// GroupServe asks a node host to instantiate its slice of one LDS group:
// the L1 and L2 servers of namespace Group that the deterministic
// round-robin assignment (L1/i and L2/i go to Nodes[i mod len(Nodes)])
// places on the receiver. The servers boot seeded at (Value, Tag) — the
// zero tag is the paper's initial state, a non-zero tag a migration
// snapshot. Once the code check passes, the receiver merges Nodes into its
// address table and sends client replies to ClientAddr. Serving an
// already-hosted group with the same Gen is idempotent and just
// re-acknowledges; a different Gen replaces the hosted group outright.
type GroupServe struct {
	Seq   uint64
	Group int32
	// Gen is the group's incarnation, unique per (gateway, group build):
	// namespaces are recycled, and two incarnations of one namespace can
	// carry byte-identical geometry/node/seed descriptions while serving
	// different keys. Gen is what lets a node that missed a GroupRetire
	// distinguish a redundant re-serve (same Gen: keep the servers) from
	// a successor group in a recycled namespace (new Gen: discard the
	// stale servers and rebuild).
	Gen uint64
	// Geometry of the group (lds.Params is derived from these on the node).
	N1, N2, F1, F2 int32
	// Nodes is the full shard group, in assignment order.
	Nodes []NodeAddr
	// ClientAddr is the gateway-side listener hosting the clients and the
	// control endpoint the response goes to.
	ClientAddr string
	// Value and Tag seed the group's servers (sim.Config.InitialValue /
	// InitialTag equivalents).
	Value []byte
	Tag   tag.Tag
	// Code fingerprints the storage code the sender's clients decode with
	// (lds.Params.CodeFingerprint). A node whose own code differs refuses
	// the group. A sender that predates the field encodes no Code, which
	// decodes as 0 and so is refused too.
	Code uint64
}

// Kind implements Message.
func (GroupServe) Kind() Kind { return KindGroupServe }

func (m *GroupServe) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.uint64(&m.Gen)
	c.int32(&m.N1)
	c.int32(&m.N2)
	c.int32(&m.F1)
	c.int32(&m.F2)
	c.nodes(&m.Nodes)
	c.string(&m.ClientAddr)
	c.tag(&m.Tag)
	c.bytes(&m.Value)
	if c.more() { // an older sender ends here
		c.uint64(&m.Code)
	}
}

// GroupServeResp acknowledges a GroupServe; a non-empty Err reports why
// the receiver could not host its slice of the group. A node that serves
// the group echoes the request's Code, which it checked against its own;
// one that predates the check sends none (0), and the sender refuses it.
type GroupServeResp struct {
	Seq   uint64
	Group int32
	Err   string
	Code  uint64
}

// Kind implements Message.
func (GroupServeResp) Kind() Kind { return KindGroupServeResp }

func (m *GroupServeResp) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.string(&m.Err)
	if c.more() { // an older node ends here
		c.uint64(&m.Code)
	}
}

// GroupRetire asks a node host to tear down its servers of namespace
// Group. Retiring an unknown group acknowledges trivially, so retire is
// idempotent and safe to fire at restarted (amnesiac) nodes.
type GroupRetire struct {
	Seq   uint64
	Group int32
}

// Kind implements Message.
func (GroupRetire) Kind() Kind { return KindGroupRetire }

func (m *GroupRetire) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
}

// GroupRetireResp acknowledges a GroupRetire.
type GroupRetireResp struct {
	Seq   uint64
	Group int32
}

// Kind implements Message.
func (GroupRetireResp) Kind() Kind { return KindGroupRetireResp }

func (m *GroupRetireResp) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
}

// NodePing health-checks a node host. ReplyAddr tells the receiver where
// the sender's control endpoint lives (a ping may precede any GroupServe,
// so the receiver cannot be assumed to know the sender yet).
type NodePing struct {
	Seq       uint64
	ReplyAddr string
}

// Kind implements Message.
func (NodePing) Kind() Kind { return KindNodePing }

func (m *NodePing) fields(c *codec) {
	c.uint64(&m.Seq)
	c.string(&m.ReplyAddr)
}

// NodePong answers a NodePing with the number of groups the node
// currently hosts — zero after a restart, which is how the gateway's
// prober detects an amnesiac node that needs reprovisioning — plus the
// node-wide storage gauges, so a health probe doubles as a capacity
// sample without a second RPC.
type NodePong struct {
	Seq    uint64
	Groups int32
	// Servers is how many protocol servers (L1 + L2 slices) the node runs.
	Servers int32
	// TemporaryBytes / PermanentBytes / OffloadQueueDepth sum the paper's
	// storage gauges over every server the node hosts (the per-group split
	// is the GroupStats RPC's job).
	TemporaryBytes    int64
	PermanentBytes    int64
	OffloadQueueDepth int64
}

// Kind implements Message.
func (NodePong) Kind() Kind { return KindNodePong }

func (m *NodePong) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Groups)
	c.int32(&m.Servers)
	c.int64(&m.TemporaryBytes)
	c.int64(&m.PermanentBytes)
	c.int64(&m.OffloadQueueDepth)
}

// GroupStats asks a node host for its share of the storage gauges of one
// group (Group >= 0) or of every group it hosts (Group == AllGroups).
// The gateway sums the per-node answers to get the live occupancy of its
// remote groups — what sim shards read directly from their in-process
// servers. The bulk form keeps a stats sweep at one RPC per node instead
// of one per (group, node).
//
// With a Code it is the gateway's per-node reconcile: a receiver whose
// own code fingerprint is Code echoes it, merges Nodes (the topology) into
// its address table and sends client replies to ReplyAddr from then on.
// An older sender encodes neither field; they decode as 0 and nil.
type GroupStats struct {
	Seq   uint64
	Group int32
	// ReplyAddr tells the receiver where the sender's control endpoint
	// lives (stats may be sampled before any GroupServe taught the node
	// the gateway's address, e.g. right after a gateway restart).
	ReplyAddr string
	Code      uint64 // lds.Params.CodeFingerprint; 0 in a gauge sample
	Nodes     []NodeAddr
}

// AllGroups as GroupStats.Group selects every group the node hosts.
const AllGroups int32 = -1

// Kind implements Message.
func (GroupStats) Kind() Kind { return KindGroupStats }

func (m *GroupStats) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.string(&m.ReplyAddr)
	if c.more() { // an older sender ends here
		c.uint64(&m.Code)
		c.nodes(&m.Nodes)
	}
}

// GroupGauges is one group's storage gauges as summed over the L1 and L2
// server slices a single node hosts for it, and its GroupServe.Gen.
type GroupGauges struct {
	Group             int32
	TemporaryBytes    int64
	PermanentBytes    int64
	OffloadQueueDepth int64
	Gen               uint64
}

// GroupStatsResp answers a GroupStats with one entry per requested group
// the node actually hosts; a requested group that is absent (a restarted
// node before reprovisioning, or a raced retire) simply has no entry.
// Code echoes a request Code that is the node's own fingerprint. Gens and
// Code follow the gauges, so an older decoder ignores them, and an older
// node's answer decodes with every Gen 0 — never minted, so the gateway
// re-serves its groups.
type GroupStatsResp struct {
	Seq    uint64
	Groups []GroupGauges
	Code   uint64
}

// Kind implements Message.
func (GroupStatsResp) Kind() Kind { return KindGroupStatsResp }

func (m *GroupStatsResp) fields(c *codec) {
	c.uint64(&m.Seq)
	list(c, &m.Groups)
	for i := range m.Groups {
		g := &m.Groups[i]
		c.int32(&g.Group)
		c.int64(&g.TemporaryBytes)
		c.int64(&g.PermanentBytes)
		c.int64(&g.OffloadQueueDepth)
	}
	if !c.more() {
		return // an older node: no generations, no Code
	}
	for i := range m.Groups {
		c.uint64(&m.Groups[i].Gen)
	}
	if c.more() {
		c.uint64(&m.Code)
	}
}
