package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/erasure/rs"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/gf"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/matrix"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// Probes time one layer's exported functions from outside, on one
// goroutine, at the workload's geometry and value size. They say what a
// layer costs in isolation; the in-vivo counters of the traced stretch say
// how often the workload pays it.

// prober runs the probes of one traced run and files their results.
type prober struct {
	ctx   context.Context
	each  time.Duration // length of one timed loop
	m     *metricSet
	t     *tracer
	value []byte
}

// timeLoop calls fn for about d and returns the mean nanoseconds per call.
// Calls are batched so the clock is read rarely next to ns-scale bodies.
func timeLoop(d time.Duration, fn func()) float64 {
	var (
		total time.Duration
		calls int
	)
	for batch := 1; total < d; {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		el := time.Since(start)
		total += el
		calls += batch
		if el < d/20 {
			batch *= 2
		}
	}
	return float64(total) / float64(calls)
}

// loop times fn under a probe span and returns ns per call.
func (p *prober) loop(name string, fn func()) float64 {
	start := time.Now()
	ns := timeLoop(p.each, fn)
	p.t.add("probe."+name, start, time.Now(), 0, 0)
	return ns
}

func mbPerS(bytes int, nsPerCall float64) float64 { return float64(bytes) / nsPerCall * 1e3 }

// probeCloseBound bounds every Close a probe makes.
const probeCloseBound = 10 * time.Second

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe: %v", err))
	}
}

// kernels probes gf, matrix, erasure/mbr (and rs as the comparator that
// shares matrix.MulInto) and wire: pure functions, no goroutines.
func (p *prober) kernels() {
	g := geometry()
	const block = 4 << 10
	src, dst := make([]byte, block), make([]byte, block)
	copy(src, p.value)
	p.m.set("gf.addmul_mb_s", mbPerS(block, p.loop("gf.addmul_mb_s", func() { gf.AddMulSlice(0x53, src, dst) })))
	p.m.set("gf.add_mb_s", mbPerS(block, p.loop("gf.add_mb_s", func() { gf.AddSlice(src, dst) })))

	points := make([]byte, g.D)
	for i := range points {
		points[i] = byte(i + 1)
	}
	a, b := matrix.Vandermonde(points, g.D), matrix.Vandermonde(points, g.D)
	var prod *matrix.Matrix
	p.m.set("matrix.mul_ns", p.loop("matrix.mul_ns", func() { prod = a.MulInto(b, prod) }))
	sq := matrix.Vandermonde(points[:g.K], g.K)
	p.m.set("matrix.inverse_ns", p.loop("matrix.inverse_ns", func() {
		_, err := sq.Inverse()
		must(err)
	}))

	code, err := mbr.New(g.CodeParams())
	must(err)
	size := len(p.value)
	l2 := make([]int, g.N2)
	for i := range l2 {
		l2[i] = g.L2CodeIndex(i)
	}
	p.m.set("mbr.encode_mb_s", mbPerS(size, p.loop("mbr.encode_mb_s", func() {
		_, err := code.Encode(p.value)
		must(err)
	})))
	p.m.set("mbr.encode_nodes_mb_s", mbPerS(size, p.loop("mbr.encode_nodes_mb_s", func() {
		_, err := code.EncodeNodes(p.value, l2)
		must(err)
	})))
	// The read path's shapes: an L2 server helps L1 server 0 regenerate its
	// element, L1 server 0 regenerates from d helpers, the reader decodes
	// from k L1 elements.
	shards, err := code.Encode(p.value)
	must(err)
	p.m.set("mbr.helper_us", p.loop("mbr.helper_us", func() {
		_, err := code.Helper(shards[l2[0]], l2[0], 0)
		must(err)
	})/1e3)
	helpers := make([]erasure.Helper, g.D)
	for i := range helpers {
		h, err := code.Helper(shards[l2[i]], l2[i], 0)
		must(err)
		helpers[i] = erasure.Helper{Index: l2[i], Data: h}
	}
	p.m.set("mbr.regenerate_us", p.loop("mbr.regenerate_us", func() {
		_, err := code.Regenerate(0, helpers)
		must(err)
	})/1e3)
	l1 := make([]erasure.Shard, g.K)
	for i := range l1 {
		l1[i] = erasure.Shard{Index: i, Data: shards[i]}
	}
	p.m.set("mbr.decode_us", p.loop("mbr.decode_us", func() {
		_, err := code.Decode(size, l1)
		must(err)
	})/1e3)

	reed, err := rs.New(g.N1+g.N2, g.K)
	must(err)
	p.m.set("rs.encode_mb_s", mbPerS(size, p.loop("rs.encode_mb_s", func() {
		_, err := reed.Encode(p.value)
		must(err)
	})))

	from, to := wire.ProcID{Role: wire.RoleWriter, Index: 1}, wire.ProcID{Role: wire.RoleL1, Index: 0}
	valueEnv := wire.Envelope{From: from, To: to, Msg: wire.PutData{OpID: 7, Tag: tag.Tag{Z: 9, W: 1}, Value: p.value}}
	metaEnv := wire.Envelope{From: from, To: to, Msg: wire.QueryTag{OpID: 7}}
	var buf []byte
	p.m.set("wire.encode_value_us", p.loop("wire.encode_value_us", func() { buf = wire.AppendEnvelope(buf[:0], valueEnv) })/1e3)
	encValue := append([]byte(nil), buf...)
	p.m.set("wire.decode_alias_value_us", p.loop("wire.decode_alias_value_us", func() {
		_, err := wire.DecodeEnvelopeAlias(encValue)
		must(err)
	})/1e3)
	p.m.set("wire.decode_clone_value_us", p.loop("wire.decode_clone_value_us", func() {
		_, err := wire.DecodeEnvelope(encValue)
		must(err)
	})/1e3)
	p.m.set("wire.encode_meta_ns", p.loop("wire.encode_meta_ns", func() { buf = wire.AppendEnvelope(buf[:0], metaEnv) }))
	encMeta := append([]byte(nil), buf...)
	p.m.set("wire.decode_meta_ns", p.loop("wire.decode_meta_ns", func() {
		_, err := wire.DecodeEnvelopeAlias(encMeta)
		must(err)
	}))
}

// link is two registered nodes on some transport: a pings, b answers.
type link struct {
	a, b     transport.Node
	pong     chan struct{}
	received atomic.Int64 // one-way messages b has handled
}

// newLink registers a on one network and b on the other (or the same).
func newLink(netA, netB transport.Network) *link {
	l := &link{pong: make(chan struct{}, 1)}
	var err error
	l.a, err = netA.Register(probeA, l.handleA)
	must(err)
	l.b, err = netB.Register(probeB, l.handleB)
	must(err)
	return l
}

func (l *link) handleA(wire.Envelope) { l.pong <- struct{}{} }

func (l *link) handleB(env wire.Envelope) {
	switch env.Msg.(type) {
	case wire.QueryTag:
		_ = l.b.Send(env.From, wire.QueryTagResp{})
	default:
		l.received.Add(1)
	}
}

// hop is half a ping-pong round trip: what one protocol message costs when
// the receiver's answer is what the sender waits for.
func (l *link) hop(p *prober, name string) float64 {
	return p.loop(name, func() {
		must(l.a.Send(l.b.ID(), wire.QueryTag{}))
		select {
		case <-l.pong:
		case <-p.ctx.Done():
			panic("benchmark: probe: transport did not answer a ping")
		}
	}) / 2 / 1e3
}

// flood sends msg one way for the probe length with at most window
// messages outstanding. It returns messages per second and the process CPU
// time per message: under load messages overlap and batch, so this, not the
// ping-pong hop, is what one more message costs a busy system.
func (l *link) flood(p *prober, name string, msg wire.Message) (perS, cpuUS float64) {
	const window = 1024
	start, cpu0 := time.Now(), cpuTime()
	base := l.received.Load()
	sent := int64(0)
	for time.Since(start) < p.each {
		for i := 0; i < 64; i++ {
			must(l.a.Send(l.b.ID(), msg))
		}
		sent += 64
		for l.received.Load()-base < sent-window && p.ctx.Err() == nil {
			runtime.Gosched()
		}
	}
	for l.received.Load()-base < sent && p.ctx.Err() == nil {
		runtime.Gosched()
	}
	end, cpu1 := time.Now(), cpuTime()
	p.t.add("probe."+name, start, end, 0, 0)
	return float64(sent) / end.Sub(start).Seconds(), float64(cpu1-cpu0) / 1e3 / float64(sent)
}

var (
	probeA = wire.ProcID{Role: wire.RoleWriter, Index: 1}
	probeB = wire.ProcID{Role: wire.RoleL1, Index: 0}
)

// transports probes channet and tcpnet (loopback) with the same two-node
// shape.
func (p *prober) transports() {
	cn := channet.New(channet.Options{})
	l := newLink(cn, cn)
	p.m.set("channet.hop_us", l.hop(p, "channet.hop_us"))
	perS, cpuUS := l.flood(p, "channet.msgs_per_s", wire.CommitTag{})
	p.m.set("channet.msgs_per_s", perS)
	p.m.set("channet.cpu_us_per_msg", cpuUS)
	must(boundedClose(probeCloseBound, cn.Close))

	// Each side resolves the other's id to the address bound after both
	// listeners exist.
	var addrA, addrB string
	na, err := tcpnet.NewNetwork("127.0.0.1:0", tcpnet.Options{Resolver: func(wire.ProcID) (string, bool) { return addrB, true }})
	must(err)
	nb, err := tcpnet.NewNetwork("127.0.0.1:0", tcpnet.Options{Resolver: func(wire.ProcID) (string, bool) { return addrA, true }})
	must(err)
	addrA, addrB = na.Addr(), nb.Addr()
	l = newLink(na, nb)
	p.m.set("tcpnet.hop_us", l.hop(p, "tcpnet.hop_us"))
	perS, cpuUS = l.flood(p, "tcpnet.msgs_per_s", wire.CommitTag{})
	p.m.set("tcpnet.msgs_per_s", perS)
	p.m.set("tcpnet.cpu_us_per_msg", cpuUS)
	perS, _ = l.flood(p, "tcpnet.value_mb_s", wire.PutData{Value: p.value})
	p.m.set("tcpnet.value_mb_s", perS*float64(len(p.value))/1e6)
	p.m.set("tcpnet.dropped", float64(na.Dropped()+nb.Dropped()))
	p.m.set("tcpnet.redials", float64(na.Redials()+nb.Redials()))
	must(boundedClose(probeCloseBound, na.Close))
	must(boundedClose(probeCloseBound, nb.Close))
}

// ldsCosts is what the protocol probe learns; the traced run's model uses
// it where the accountant cannot see (tcp).
type ldsCosts struct {
	msgsPerPut, msgsPerGet   float64
	unitsPerPut, unitsPerGet float64
}

func medianUS(d []time.Duration) float64 {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2]) / 1e3
}

// bareCluster is a sim.Cluster with one writer and one reader.
type bareCluster struct {
	cl *sim.Cluster
	w  *lds.Writer
	r  *lds.Reader
}

func newBareCluster(acct *cost.Accountant) bareCluster {
	cl, err := sim.New(sim.Config{Params: geometry(), Accountant: acct})
	must(err)
	w, err := cl.Writer(1)
	must(err)
	r, err := cl.Reader(1)
	must(err)
	return bareCluster{cl, w, r}
}

// protocol probes the lds layer on bare sim.Clusters, one operation at a
// time with the network idle in between: the message and payload counts of
// a single client on a cluster with an accountant, the latencies on one
// without (the accountant costs about a tenth). In the same loop it probes
// the gateway layer on a small sim gateway with one client; the two are
// interleaved because the gateway's overhead (pool checkout, semaphore,
// observer, close bookkeeping) is their difference, a few microseconds
// that drift between two separate loops would swamp.
func (p *prober) protocol() ldsCosts {
	g := geometry()
	fresh := func() []byte { return append([]byte(nil), p.value...) } // the cluster keeps the slice
	start := time.Now()

	acct := cost.NewAccountant()
	counted := newBareCluster(acct)
	defer func() { must(boundedClose(probeCloseBound, counted.cl.Close)) }()
	const rounds = 8
	var put, get cost.Snapshot
	for i := 0; i < rounds; i++ {
		before := acct.Snapshot()
		_, err := counted.w.Write(p.ctx, fresh())
		must(err)
		must(counted.cl.WaitIdle(10 * time.Second))
		mid := acct.Snapshot()
		got, _, err := counted.r.Read(p.ctx)
		must(err)
		must(counted.cl.WaitIdle(10 * time.Second))
		if len(got) != len(p.value) {
			must(fmt.Errorf("protocol probe read %d bytes, wrote %d", len(got), len(p.value)))
		}
		put, get = addSnapshots(put, mid.Sub(before)), addSnapshots(get, acct.Snapshot().Sub(mid))
	}
	per := func(v int64) float64 { return float64(v) / rounds }
	c := ldsCosts{
		msgsPerPut: per(put.TotalMessages()), msgsPerGet: per(get.TotalMessages()),
		unitsPerPut: put.NormalizedPayload(len(p.value)) / rounds,
		unitsPerGet: get.NormalizedPayload(len(p.value)) / rounds,
	}
	p.m.set("lds.msgs_per_put", c.msgsPerPut)
	p.m.set("lds.msgs_per_get", c.msgsPerGet)
	p.m.set("lds.l1l2_msgs_per_put", per(put.Class(cost.L1L2).Messages))
	p.m.set("lds.payload_units_per_put", c.unitsPerPut)
	p.m.set("lds.payload_units_per_get", c.unitsPerGet)
	p.m.set("lds.write_cost_vs_paper", c.unitsPerPut/cost.WriteCostLDS(g.N1, g.N2, g.K, g.D))
	p.m.set("lds.read_cost_vs_paper", c.unitsPerGet/cost.ReadCostLDS(g.N1, g.N2, g.K, g.D, false))

	timed := newBareCluster(nil)
	defer func() { must(boundedClose(probeCloseBound, timed.cl.Close)) }()
	gw, err := gateway.New(gateway.Config{Shards: shards, Params: g})
	must(err)
	defer func() { must(boundedClose(probeCloseBound, gw.Close)) }()
	keys := keyNames(8)
	must(gw.Ensure(p.ctx, keys...))
	i := 0
	p.m.set("gateway.route_ns", p.loop("gateway.route_ns", func() { gw.ShardFor(keys[i&7]); i++ }))

	idle := func() {
		must(timed.cl.WaitIdle(10 * time.Second))
		must(gw.WaitIdle(10 * time.Second))
	}
	var writes, settles, reads, puts, gets []time.Duration
	for i, n := 0, int(p.each/time.Millisecond)+3; i < n; i++ {
		key := keys[i&7]
		t0 := time.Now()
		_, err := timed.w.Write(p.ctx, fresh())
		must(err)
		t1 := time.Now()
		for timed.cl.OffloadQueueDepth() != 0 && p.ctx.Err() == nil {
			runtime.Gosched()
		}
		t2 := time.Now()
		idle()
		t3 := time.Now()
		_, err = gw.Put(p.ctx, key, fresh())
		must(err)
		t4 := time.Now()
		idle()
		t5 := time.Now()
		_, _, err = timed.r.Read(p.ctx)
		must(err)
		t6 := time.Now()
		idle()
		t7 := time.Now()
		_, _, err = gw.Get(p.ctx, key)
		must(err)
		t8 := time.Now()
		idle()
		writes, settles, puts = append(writes, t1.Sub(t0)), append(settles, t2.Sub(t1)), append(puts, t4.Sub(t3))
		reads, gets = append(reads, t6.Sub(t5)), append(gets, t8.Sub(t7))
	}
	p.t.add("probe.lds+gateway", start, time.Now(), 0, 0)
	writeUS, readUS := medianUS(writes), medianUS(reads)
	p.m.set("lds.write_us", writeUS)
	p.m.set("lds.read_settled_us", readUS)
	p.m.set("lds.offload_settle_us", medianUS(settles))
	p.m.set("gateway.put_overhead_us", medianUS(puts)-writeUS)
	p.m.set("gateway.get_overhead_us", medianUS(gets)-readUS)
	return c
}

func addSnapshots(a, b cost.Snapshot) cost.Snapshot {
	for i := range a.PerClass {
		a.PerClass[i].Messages += b.PerClass[i].Messages
		a.PerClass[i].Payload += b.PerClass[i].Payload
		a.PerClass[i].Meta += b.PerClass[i].Meta
	}
	for i := range a.PerKindPayload {
		a.PerKindPayload[i] += b.PerKindPayload[i]
	}
	return a
}

// durable probes what the tcp workload's set-up pays for: booting the node
// hosts, and one fsync'd catalog append on the run's own file system.
func (p *prober) durable() {
	start := time.Now()
	hosts := make([]*nodehost.Host, tcpNodes)
	for i := range hosts {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{})
		must(err)
		hosts[i] = h
	}
	boot := time.Since(start)
	p.t.add("probe.nodehost.boot_ms", start, time.Now(), 0, 0)
	for _, h := range hosts {
		must(boundedClose(probeCloseBound, h.Close))
	}
	p.m.set("nodehost.boot_ms", float64(boot)/1e6)

	must(os.MkdirAll(scratchBase, 0o755))
	dir, err := os.MkdirTemp(scratchBase, "probe-")
	must(err)
	defer os.RemoveAll(dir)
	cat, err := catalog.Open(dir)
	must(err)
	p.m.set("catalog.append_us", p.loop("catalog.append_us", func() {
		must(cat.Append(catalog.Record{Type: catalog.TypeNSAlloc}))
	})/1e3)
	must(cat.Close())
}
