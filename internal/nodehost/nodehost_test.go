package nodehost

import (
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// ctlClient is a minimal stand-in for the gateway's control endpoint.
type ctlClient struct {
	net  *tcpnet.Network
	node interface {
		Send(wire.ProcID, wire.Message) error
	}
	resps chan wire.Message
}

func newCtlClient(t *testing.T, hostAddr string, hostID int32) *ctlClient {
	t.Helper()
	c := &ctlClient{resps: make(chan wire.Message, 16)}
	net, err := tcpnet.New("127.0.0.1:0", tcpnet.AddressBook{
		{Role: wire.RoleControl, Index: hostID}: hostAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	node, err := net.Register(wire.ProcID{Role: wire.RoleControl, Index: -1},
		func(env wire.Envelope) { c.resps <- env.Msg })
	if err != nil {
		t.Fatal(err)
	}
	c.net, c.node = net, node
	return c
}

func (c *ctlClient) roundTrip(t *testing.T, to int32, msg wire.Message) wire.Message {
	t.Helper()
	if err := c.node.Send(wire.ProcID{Role: wire.RoleControl, Index: to}, msg); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-c.resps:
		return resp
	case <-time.After(10 * time.Second):
		t.Fatalf("no response to %T", msg)
		return nil
	}
}

// codeOf returns the code fingerprint a gateway of this build sends for
// the given geometry.
func codeOf(t *testing.T, n1, n2, f1, f2 int) uint64 {
	t.Helper()
	p, err := lds.NewParams(n1, n2, f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.CodeFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestAssignedNode(t *testing.T) {
	// 4 servers over 3 nodes: 0,1,2,0 — the documented round-robin.
	want := []int{0, 1, 2, 0}
	for i, w := range want {
		if got := AssignedNode(i, 3); got != w {
			t.Errorf("AssignedNode(%d, 3) = %d, want %d", i, got, w)
		}
	}
}

// TestServeRetireHandshake drives the provisioning protocol directly:
// serve builds the node's server slice, an identical re-serve is
// idempotent, a conflicting one replaces, retire tears down, and pings
// report the group count throughout.
func TestServeRetireHandshake(t *testing.T) {
	h, err := New("127.0.0.1:0", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := newCtlClient(t, h.Addr(), 1)

	serve := wire.GroupServe{
		Seq: 1, Group: 7, N1: 3, N2: 4, F1: 1, F2: 1,
		Nodes:      []wire.NodeAddr{{ID: 1, Addr: h.Addr()}},
		ClientAddr: c.net.Addr(),
		Value:      []byte("v0"),
		Code:       codeOf(t, 3, 4, 1, 1),
	}
	if resp := c.roundTrip(t, 1, serve).(wire.GroupServeResp); resp.Err != "" {
		t.Fatalf("serve: %s", resp.Err)
	} else if resp.Code != serve.Code {
		t.Fatalf("serve acked code %016x, want %016x echoed", resp.Code, serve.Code)
	}
	// Sole node of the group: it hosts all 3 L1 and all 4 L2 servers.
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("groups=%d servers=%d, want 1/7", h.Groups(), h.Servers())
	}

	serve.Seq = 2
	if resp := c.roundTrip(t, 1, serve).(wire.GroupServeResp); resp.Err != "" {
		t.Fatalf("idempotent re-serve: %s", resp.Err)
	}
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("re-serve changed state: groups=%d servers=%d", h.Groups(), h.Servers())
	}

	// A new incarnation of the same (recycled) namespace replaces the old
	// group even when the description is byte-identical — the case where
	// this node missed the retire and a successor key now occupies the
	// namespace. Only Gen distinguishes them.
	replace := serve
	replace.Seq = 3
	replace.Gen = serve.Gen + 1
	if resp := c.roundTrip(t, 1, replace).(wire.GroupServeResp); resp.Err != "" {
		t.Fatalf("replacing serve: %s", resp.Err)
	}
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("replace: groups=%d servers=%d, want 1/7", h.Groups(), h.Servers())
	}

	// And a further incarnation carrying a migration seed also replaces.
	migrated := replace
	migrated.Seq = 4
	migrated.Gen = replace.Gen + 1
	migrated.Tag = tag.Tag{Z: 9, W: 1}
	migrated.Value = []byte("migrated")
	if resp := c.roundTrip(t, 1, migrated).(wire.GroupServeResp); resp.Err != "" {
		t.Fatalf("seeded replacing serve: %s", resp.Err)
	}
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("seeded replace: groups=%d servers=%d, want 1/7", h.Groups(), h.Servers())
	}

	// A gateway restarted against its catalog moves to a new address and
	// reconciles: a bulk GroupStats carrying this node's code fingerprint
	// and the topology. The node keeps the servers, lists the group at its
	// generation, echoes the code and sends client replies to the new
	// address from then on. The second ctl client plays the restarted
	// gateway; the answer routes to it because the request says where it
	// lives.
	c2 := newCtlClient(t, h.Addr(), 1)
	reconcile := wire.GroupStats{Seq: 5, Group: wire.AllGroups, ReplyAddr: c2.net.Addr(), Code: serve.Code,
		Nodes: []wire.NodeAddr{{ID: 1, Addr: h.Addr()}, {ID: 2, Addr: "10.0.0.2:7101"}}}
	st := c2.roundTrip(t, 1, reconcile).(wire.GroupStatsResp)
	if st.Code != serve.Code || len(st.Groups) != 1 || st.Groups[0].Group != 7 || st.Groups[0].Gen != migrated.Gen {
		t.Fatalf("reconcile = %+v, want code %016x echoed and group 7 at gen %d", st, serve.Code, migrated.Gen)
	}
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("reconcile rebuilt: groups=%d servers=%d", h.Groups(), h.Servers())
	}
	if addr, ok := h.resolve(wire.ProcID{Role: wire.RoleWriter, Index: 7 << 16}); !ok || addr != c2.net.Addr() {
		t.Fatalf("writer resolve after reconcile = (%q, %v), want %q", addr, ok, c2.net.Addr())
	}
	h.mu.RLock()
	peer := h.addrs[2]
	h.mu.RUnlock()
	if peer != "10.0.0.2:7101" {
		t.Fatalf("node 2's address after reconcile = %q, want the topology's", peer)
	}

	// GroupStats samples this node's share of the group's gauges; the L2
	// seed value makes PermanentBytes non-zero immediately.
	if st := c2.roundTrip(t, 1, wire.GroupStats{Seq: 6, Group: 7, ReplyAddr: c2.net.Addr()}).(wire.GroupStatsResp); len(st.Groups) != 1 || st.Groups[0].Group != 7 || st.Groups[0].PermanentBytes == 0 {
		t.Fatalf("GroupStats = %+v, want one entry for group 7 with seeded permanent bytes", st)
	}
	if st := c2.roundTrip(t, 1, wire.GroupStats{Seq: 7, Group: 404, ReplyAddr: c2.net.Addr()}).(wire.GroupStatsResp); len(st.Groups) != 0 {
		t.Fatalf("GroupStats for an unknown group = %+v, want no entries", st)
	}
	// The bulk form answers for every hosted group in one round trip.
	if st := c2.roundTrip(t, 1, wire.GroupStats{Seq: 8, Group: wire.AllGroups, ReplyAddr: c2.net.Addr()}).(wire.GroupStatsResp); len(st.Groups) != 1 || st.Groups[0].Group != 7 {
		t.Fatalf("bulk GroupStats = %+v, want the node's one hosted group", st)
	}

	// Hand the control conversation back to the original client for the
	// remaining checks. A ping moves control replies, never client ones.
	c.roundTrip(t, 1, wire.NodePing{Seq: 8, ReplyAddr: c.net.Addr()})
	if addr, _ := h.resolve(wire.ProcID{Role: wire.RoleReader, Index: 7 << 16}); addr != c2.net.Addr() {
		t.Fatalf("reader resolve after a ping = %q, want the reconciled %q", addr, c2.net.Addr())
	}

	// A serve that does not list this node must be refused.
	foreign := serve
	foreign.Seq = 4
	foreign.Group = 8
	foreign.Nodes = []wire.NodeAddr{{ID: 99, Addr: "10.0.0.9:1"}}
	if resp := c.roundTrip(t, 1, foreign).(wire.GroupServeResp); resp.Err == "" {
		t.Fatal("serving a group that excludes this node did not fail")
	}

	if pong := c.roundTrip(t, 1, wire.NodePing{Seq: 5, ReplyAddr: c.net.Addr()}).(wire.NodePong); pong.Groups != 1 {
		t.Fatalf("pong groups = %d, want 1", pong.Groups)
	}

	if resp := c.roundTrip(t, 1, wire.GroupRetire{Seq: 6, Group: 7}).(wire.GroupRetireResp); resp.Group != 7 {
		t.Fatalf("retire acked group %d", resp.Group)
	}
	if h.Groups() != 0 || h.Servers() != 0 {
		t.Fatalf("after retire: groups=%d servers=%d, want 0/0", h.Groups(), h.Servers())
	}
	// Retiring an unknown group is idempotent.
	if resp := c.roundTrip(t, 1, wire.GroupRetire{Seq: 7, Group: 7}).(wire.GroupRetireResp); resp.Group != 7 {
		t.Fatalf("idempotent retire acked group %d", resp.Group)
	}
}

// TestServeRefusesOtherCode: a gateway built with another erasure code --
// or one that predates the fingerprint and sends none -- would pair its
// decoder with this node's coded bytes and read wrong values. The node
// answers with an error, echoes no code, and serves nothing, not even on
// an incarnation it already hosts; and no message from such a gateway
// makes the node send it client replies.
func TestServeRefusesOtherCode(t *testing.T) {
	h, err := New("127.0.0.1:0", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := newCtlClient(t, h.Addr(), 1)
	serve := wire.GroupServe{
		Seq: 1, Group: 3, Gen: 1, N1: 3, N2: 4, F1: 1, F2: 1,
		Nodes:      []wire.NodeAddr{{ID: 1, Addr: h.Addr()}},
		ClientAddr: c.net.Addr(),
		Code:       codeOf(t, 3, 4, 1, 1),
	}
	for i, code := range []uint64{serve.Code ^ 1, 0, codeOf(t, 3, 5, 1, 1)} {
		bad := serve
		bad.Seq, bad.Code = uint64(10+i), code
		resp := c.roundTrip(t, 1, bad).(wire.GroupServeResp)
		if resp.Err == "" || resp.Code != 0 {
			t.Fatalf("serve with code %016x: resp %+v, want an error and no code", code, resp)
		}
		if h.Groups() != 0 || h.Servers() != 0 {
			t.Fatalf("serve with code %016x: groups=%d servers=%d, want 0/0", code, h.Groups(), h.Servers())
		}
	}
	if resp := c.roundTrip(t, 1, serve).(wire.GroupServeResp); resp.Err != "" || resp.Code != serve.Code {
		t.Fatalf("serve with this node's code: %+v", resp)
	}
	writer := wire.ProcID{Role: wire.RoleWriter, Index: 3 << 16}
	if addr, _ := h.resolve(writer); addr != c.net.Addr() {
		t.Fatalf("writer resolve = %q, want the serving gateway's %q", addr, c.net.Addr())
	}

	// A gateway of another code at another address: its serves are
	// refused, its reconcile is answered without an echo, and neither its
	// pings nor its gauge samples move the client replies to it. Only a
	// reconcile with this node's code does.
	c2 := newCtlClient(t, h.Addr(), 1)
	bad := serve
	bad.Seq, bad.Code, bad.ClientAddr = 20, 0, c2.net.Addr()
	if resp := c2.roundTrip(t, 1, bad).(wire.GroupServeResp); resp.Err == "" {
		t.Fatal("re-serve of a hosted incarnation without a code did not fail")
	}
	if h.Groups() != 1 || h.Servers() != 7 {
		t.Fatalf("after refused re-serve: groups=%d servers=%d, want the hosted 1/7 kept", h.Groups(), h.Servers())
	}
	for i, msg := range []wire.Message{
		wire.GroupStats{Seq: 21, Group: wire.AllGroups, ReplyAddr: c2.net.Addr(), Code: serve.Code ^ 1},
		wire.GroupStats{Seq: 22, Group: wire.AllGroups, ReplyAddr: c2.net.Addr()},
		wire.NodePing{Seq: 23, ReplyAddr: c2.net.Addr()},
	} {
		if st, ok := c2.roundTrip(t, 1, msg).(wire.GroupStatsResp); ok && st.Code != 0 {
			t.Fatalf("request %d: %T echoed code %016x", i, msg, st.Code)
		}
		if addr, _ := h.resolve(writer); addr != c.net.Addr() {
			t.Fatalf("after %T: writer resolve = %q, want still %q", msg, addr, c.net.Addr())
		}
	}
	if st := c2.roundTrip(t, 1, wire.GroupStats{Seq: 24, Group: wire.AllGroups, ReplyAddr: c2.net.Addr(), Code: serve.Code}).(wire.GroupStatsResp); st.Code != serve.Code {
		t.Fatalf("reconcile with this node's code: %+v, want the code echoed", st)
	}
	if addr, _ := h.resolve(writer); addr != c2.net.Addr() {
		t.Fatalf("after a reconcile with this node's code: writer resolve = %q, want %q", addr, c2.net.Addr())
	}
}
