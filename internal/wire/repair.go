package wire

import "github.com/lds-storage/lds/internal/tag"

// This file defines the scrub/repair control plane: the messages the
// gateway's repair scheduler exchanges with node hosts to detect and
// restore lost redundancy in the back-end layer. Like the provisioning
// handshake (control.go) these are outside the paper's protocol; they ride
// the same transport and the same at-least-once RPC discipline (a Seq per
// request, idempotent receivers, duplicate responses dropped).
//
// The unit of scrub and repair is one L2 server's stored (tag, coded
// element) pair. L1 temporary state is never repaired: it drains through
// the offload pipeline by design, so only the permanent layer's redundancy
// needs an anti-entropy loop.

// ElemInventory asks a node host to list the (tag, digest) of every L2
// code element it stores for one group (Group >= 0) or for all groups it
// hosts (Group == AllGroups). ReplyAddr as in GroupStats.
type ElemInventory struct {
	Seq       uint64
	Group     int32
	ReplyAddr string
}

// Kind implements Message.
func (ElemInventory) Kind() Kind { return KindElemInventory }

func (m *ElemInventory) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.string(&m.ReplyAddr)
}

// ElemStat describes one stored L2 code element: which server holds it,
// the tag it is stored under, a digest of the stored bytes, and whether
// the bytes still match the digest recorded when the element was adopted
// (Healthy == false means bit rot, detected node-side so the scrubber
// needs no per-element ground truth).
type ElemStat struct {
	// Index is the L2 server index in [0, n2) within the group.
	Index int32
	Tag   tag.Tag
	// Digest is the FNV-64a sum recorded when the element was adopted.
	Digest uint64
	// StoredLen / ValueLen size the element and the original value.
	StoredLen int32
	ValueLen  int32
	// Healthy reports whether the stored bytes still hash to Digest.
	Healthy bool
}

// GroupInventory is one group's element listing from a single node.
type GroupInventory struct {
	Group int32
	Elems []ElemStat
}

// ElemInventoryResp answers an ElemInventory with one entry per requested
// group the node actually hosts (absent groups have no entry, exactly as
// in GroupStatsResp).
type ElemInventoryResp struct {
	Seq    uint64
	Groups []GroupInventory
}

// Kind implements Message.
func (ElemInventoryResp) Kind() Kind { return KindElemInventoryResp }

func (m *ElemInventoryResp) fields(c *codec) {
	c.uint64(&m.Seq)
	list(c, &m.Groups)
	for i := range m.Groups {
		g := &m.Groups[i]
		c.int32(&g.Group)
		list(c, &g.Elems)
		for j := range g.Elems {
			e := &g.Elems[j]
			c.int32(&e.Index)
			c.tag(&e.Tag)
			c.uint64(&e.Digest)
			c.int32(&e.StoredLen)
			c.int32(&e.ValueLen)
			c.bool(&e.Healthy)
		}
	}
}

// ElemFetch asks a node host for repair data from one stored L2 element.
// With FailedIndex == FullElement the response carries the whole stored
// element (the RS decode-reencode fallback); otherwise FailedIndex is the
// *code symbol index* (n1 + j for L2 server j) under repair and the
// response carries the regenerating code's helper data toward it — beta
// bytes per stripe instead of alpha, the bandwidth the MSR/MBR codes buy.
type ElemFetch struct {
	Seq         uint64
	Group       int32
	Index       int32 // L2 server index of the element to read
	FailedIndex int32
	ReplyAddr   string
}

// FullElement as ElemFetch.FailedIndex selects the whole stored element
// instead of helper data.
const FullElement int32 = -1

// Kind implements Message.
func (ElemFetch) Kind() Kind { return KindElemFetch }

func (m *ElemFetch) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.int32(&m.Index)
	c.int32(&m.FailedIndex)
	c.string(&m.ReplyAddr)
}

// ElemFetchResp answers an ElemFetch. Data is the stored element or the
// helper payload; a non-empty Err reports why the node could not serve it
// (group or element not hosted, helper computation failed).
type ElemFetchResp struct {
	Seq      uint64
	Group    int32
	Index    int32
	Tag      tag.Tag
	ValueLen int32
	Data     []byte
	Err      string
}

// Kind implements Message.
func (ElemFetchResp) Kind() Kind { return KindElemFetchResp }

func (m *ElemFetchResp) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.int32(&m.Index)
	c.tag(&m.Tag)
	c.int32(&m.ValueLen)
	c.string(&m.Err)
	c.bytes(&m.Data)
}

// ElemRepair installs a regenerated element on a node host. The receiver
// adopts it when the stored tag is not newer than Tag (equal tags replace
// the stored bytes, which is what heals bit rot; a strictly newer stored
// element means a racing write already superseded this repair and wins).
type ElemRepair struct {
	Seq       uint64
	Group     int32
	Index     int32
	Tag       tag.Tag
	ValueLen  int32
	Coded     []byte
	ReplyAddr string
}

// Kind implements Message.
func (ElemRepair) Kind() Kind { return KindElemRepair }

func (m *ElemRepair) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.int32(&m.Index)
	c.tag(&m.Tag)
	c.int32(&m.ValueLen)
	c.string(&m.ReplyAddr)
	c.bytes(&m.Coded)
}

// ElemRepairResp acknowledges an ElemRepair. Installed reports whether the
// element was adopted (false with empty Err: a newer stored element won).
type ElemRepairResp struct {
	Seq       uint64
	Group     int32
	Index     int32
	Installed bool
	Err       string
}

// Kind implements Message.
func (ElemRepairResp) Kind() Kind { return KindElemRepairResp }

func (m *ElemRepairResp) fields(c *codec) {
	c.uint64(&m.Seq)
	c.int32(&m.Group)
	c.int32(&m.Index)
	c.bool(&m.Installed)
	c.string(&m.Err)
}
