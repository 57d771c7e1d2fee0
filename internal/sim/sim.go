// Package sim assembles complete LDS clusters: n1 L1 servers, n2 L2
// servers, lazily created writers and readers, crash injection and
// storage/cost probes — on a private simulated network by default, or on
// an externally owned transport view (Config.Transport) when many
// clusters share one network, as the gateway's shard groups do. It is the
// workhorse behind the integration tests, the examples and the benchmark
// harness.
package sim

import (
	"fmt"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/wire"
)

// Config describes a cluster to build.
type Config struct {
	// Params is the cluster geometry; required.
	Params lds.Params
	// Latency is the link-delay model; the zero value delivers instantly.
	Latency transport.LatencyModel
	// Seed makes jitter and chaos delays reproducible.
	Seed int64
	// InitialValue is v0, the object's distinguished initial value.
	InitialValue []byte
	// InitialTag is the tag the cluster boots at; the zero value is t0, the
	// paper's initial tag. A non-zero tag seeds every server from a
	// migration snapshot (InitialValue, InitialTag) — L2 stores the coded
	// value at that tag and L1 commits it — so the cluster is
	// indistinguishable from one that already executed a write of
	// InitialValue at InitialTag. The gateway's live key migration uses
	// this to hand an object between groups without breaking atomicity.
	InitialTag tag.Tag
	// Accountant, when non-nil, observes all traffic for cost measurement.
	Accountant *cost.Accountant
	// Code overrides the storage code (the MSR ablation uses this); nil
	// selects the paper's MBR code for the given parameters.
	Code erasure.Regenerating
	// Transport, when non-nil, is an externally owned network to build the
	// cluster on instead of a private simulated one — typically a
	// transport.Namespace view of a network shared by many clusters, as the
	// gateway uses. Latency, Seed and Accountant are properties of the
	// shared network's owner and are ignored when Transport is set. Close
	// closes the provided Network, so per-cluster views (whose Close leaves
	// the underlying network running) are the right thing to pass.
	Transport transport.Network
}

// Cluster is a running two-layer system.
type Cluster struct {
	cfg  Config
	net  transport.Network
	code erasure.Regenerating
	l1   []*lds.L1Proc
	l2   []*lds.L2Proc

	mu      sync.Mutex
	writers map[int32]*lds.Writer
	readers map[int32]*lds.Reader
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	code := cfg.Code
	if code == nil {
		var err error
		code, err = cfg.Params.NewCode()
		if err != nil {
			return nil, err
		}
	}
	net := cfg.Transport
	if net == nil {
		var observer channet.Observer
		if cfg.Accountant != nil {
			observer = cfg.Accountant.Observe
		}
		net = channet.New(channet.Options{
			Latency:  cfg.Latency,
			Seed:     cfg.Seed,
			Observer: observer,
		})
	}
	c := &Cluster{
		cfg:     cfg,
		net:     net,
		code:    code,
		writers: make(map[int32]*lds.Writer),
		readers: make(map[int32]*lds.Reader),
	}
	for i := 0; i < cfg.Params.N1; i++ {
		srv, err := lds.RegisterL1(net, cfg.Params, i, code, cfg.InitialTag)
		if err != nil {
			net.Close()
			return nil, err
		}
		c.l1 = append(c.l1, srv)
	}
	for i := 0; i < cfg.Params.N2; i++ {
		srv, err := lds.RegisterL2(net, cfg.Params, i, code, cfg.InitialValue, cfg.InitialTag)
		if err != nil {
			net.Close()
			return nil, err
		}
		c.l2 = append(c.l2, srv)
	}
	return c, nil
}

// Params returns the cluster geometry.
func (c *Cluster) Params() lds.Params { return c.cfg.Params }

// Code returns the storage code in use.
func (c *Cluster) Code() erasure.Regenerating { return c.code }

// Network exposes the underlying network (for WaitIdle etc.).
func (c *Cluster) Network() transport.Network { return c.net }

// Writer returns (creating on first use) the writer with the given id.
func (c *Cluster) Writer(wid int32) (*lds.Writer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.writers[wid]; ok {
		return w, nil
	}
	w, err := lds.RegisterWriter(c.net, c.cfg.Params, wid)
	if err != nil {
		return nil, err
	}
	c.writers[wid] = w
	return w, nil
}

// Reader returns (creating on first use) the reader with the given id.
func (c *Cluster) Reader(rid int32) (*lds.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.readers[rid]; ok {
		return r, nil
	}
	r, err := lds.RegisterReader(c.net, c.cfg.Params, rid, c.code)
	if err != nil {
		return nil, err
	}
	c.readers[rid] = r
	return r, nil
}

// CrashL1 crash-fails L1 server i. Crash injection requires a network that
// supports it (the simulated one does); on others this is a no-op.
func (c *Cluster) CrashL1(i int) {
	if cr, ok := c.net.(transport.Crasher); ok {
		cr.Crash(wire.ProcID{Role: wire.RoleL1, Index: int32(i)})
	}
}

// CrashL2 crash-fails L2 server i.
func (c *Cluster) CrashL2(i int) {
	if cr, ok := c.net.(transport.Crasher); ok {
		cr.Crash(wire.ProcID{Role: wire.RoleL2, Index: int32(i)})
	}
}

// WaitIdle blocks until no messages are in flight; use it to wait for the
// asynchronous write-to-L2 tail after client operations return. On a shared
// external network, idleness is network-wide, not per-cluster.
func (c *Cluster) WaitIdle(timeout time.Duration) error {
	if i, ok := c.net.(transport.Idler); ok {
		return i.WaitIdle(timeout)
	}
	return fmt.Errorf("sim: network %T does not support WaitIdle", c.net)
}

// TemporaryStorageBytes sums the value bytes currently held in all L1
// lists (the paper's temporary storage cost, unnormalized).
func (c *Cluster) TemporaryStorageBytes() int64 {
	var total int64
	for _, s := range c.l1 {
		total += s.TemporaryBytes()
	}
	return total
}

// OffloadQueueDepth sums the L2 offload pipeline occupancy (queued plus
// in-flight batch elements) across all L1 servers.
func (c *Cluster) OffloadQueueDepth() int64 {
	var total int64
	for _, s := range c.l1 {
		total += s.OffloadQueueDepth()
	}
	return total
}

// L1BookkeepingEntries sums the per-tag and per-reader bookkeeping entries
// across all L1 servers; soak tests assert it stays bounded.
func (c *Cluster) L1BookkeepingEntries() int {
	var total int
	for _, s := range c.l1 {
		total += s.Bookkeeping().Total()
	}
	return total
}

// PermanentStorageBytes sums the coded bytes stored across L2 (the paper's
// permanent storage cost, unnormalized).
func (c *Cluster) PermanentStorageBytes() int64 {
	var total int64
	for _, s := range c.l2 {
		total += s.StoredBytes()
	}
	return total
}

// Violations sums internal invariant violations across all L1 servers;
// tests assert this stays zero.
func (c *Cluster) Violations() int64 {
	var total int64
	for _, s := range c.l1 {
		total += s.Violations()
	}
	return total
}

// L1 returns L1 server i (diagnostics).
func (c *Cluster) L1(i int) *lds.L1Proc { return c.l1[i] }

// L2 returns L2 server i (diagnostics).
func (c *Cluster) L2(i int) *lds.L2Proc { return c.l2[i] }

// Close shuts the cluster down.
func (c *Cluster) Close() error { return c.net.Close() }

// MustParams is a helper for tests and examples: it derives Params from
// (n1, n2, f1, f2) and panics on invalid geometry.
func MustParams(n1, n2, f1, f2 int) lds.Params {
	p, err := lds.NewParams(n1, n2, f1, f2)
	if err != nil {
		panic(fmt.Sprintf("sim: bad geometry (%d,%d,%d,%d): %v", n1, n2, f1, f2, err))
	}
	return p
}
