package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/transport"
)

// instruments are the values a traced run hands the gateway through its
// existing Config fields; the zero value is the untraced product default.
type instruments struct {
	code    erasure.Regenerating // Config.Code
	acct    *cost.Accountant     // Config.Accountant (observes sim traffic only)
	catalog *countingCatalog     // wraps the tcp workload's durable catalog
	// wrapNet is nodehost.Options.WrapNet; only the wedge fault sets it.
	wrapNet func(transport.Network) transport.Network
}

// system is one set-up back-end plus gateway.
type system struct {
	w     workload
	gw    *gateway.Gateway
	hosts []*nodehost.Host
	cat   *catalog.File
	dir   string // tcp: the catalog's directory, removed on close

	// The set-up split (per-layer gateway.* metrics); total is setup_s.
	bootHosts, newGW, ensure, preload, settle, total time.Duration
}

// settleFactor times the per-call timeout bounds a wait for the offload to
// drain: 30 s in a product run.
const settleFactor = 6

// scratchBase is where a run keeps its temporary files. It is inside the
// working directory because the benchmark may write only there.
const scratchBase = ".bench_build"

// setUp is step (1) of a run: start the back-end, build the gateway,
// create every key's group, write every key once and let the offload to L2
// finish. The preload writes go through rec so the history checker knows
// them.
func setUp(ctx context.Context, w workload, keys []string, inst instruments, pre *generator, rec *recorder, opTimeout time.Duration) (sys *system, err error) {
	sys = &system{w: w}
	start := time.Now()
	defer func() {
		if err != nil {
			sys.close(10 * time.Second)
			sys = nil
		}
	}()

	cfg := gateway.Config{
		Shards:     shards,
		Params:     geometry(),
		Code:       inst.code,
		Accountant: inst.acct,
	}
	if w.Backend == gateway.BackendTCP {
		if err := os.MkdirAll(scratchBase, 0o755); err != nil {
			return sys, err
		}
		if sys.dir, err = os.MkdirTemp(scratchBase, "catalog-"); err != nil {
			return sys, err
		}
		specs := make([]gateway.NodeSpec, tcpNodes)
		for i := range specs {
			h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{WrapNet: inst.wrapNet})
			if err != nil {
				return sys, fmt.Errorf("node host %d: %w", i+1, err)
			}
			sys.hosts = append(sys.hosts, h)
			specs[i] = gateway.NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
		}
		if sys.cat, err = catalog.Open(sys.dir); err != nil {
			return sys, err
		}
		cfg.Catalog = sys.cat
		if inst.catalog != nil {
			inst.catalog.inner = sys.cat
			cfg.Catalog = inst.catalog
		}
		cfg.Topology = &gateway.Topology{}
		for s := 0; s < shards; s++ {
			cfg.Topology.Shards = append(cfg.Topology.Shards,
				gateway.ShardSpec{Backend: gateway.BackendTCP, Nodes: specs})
		}
		sys.bootHosts = time.Since(start)
	}

	t := time.Now()
	if sys.gw, err = gateway.New(cfg); err != nil {
		return sys, fmt.Errorf("gateway: %w", err)
	}
	sys.newGW = time.Since(t)

	t = time.Now()
	if err := sys.gw.Ensure(ctx, keys...); err != nil {
		return sys, err
	}
	sys.ensure = time.Since(t)

	t = time.Now()
	for k := range keys {
		value, id := pre.value(k)
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		opStart := time.Now()
		tg, err := sys.gw.Put(opCtx, keys[k], value)
		opEnd := time.Now()
		cancel()
		if err != nil {
			return sys, fmt.Errorf("preload %s: %w", keys[k], err)
		}
		rec.add(opRecord{key: int32(k), put: true, client: preloader, start: opStart, end: opEnd, tag: tg, id: id, window: -1})
	}
	sys.preload = time.Since(t)

	t = time.Now()
	if err := sys.settleOffload(ctx, settleFactor*opTimeout); err != nil {
		return sys, err
	}
	sys.settle = time.Since(t)
	sys.total = time.Since(start)
	return sys, nil
}

// settleOffload waits until every committed value has reached L2 and the
// L1 servers have dropped their temporary copies.
func (s *system) settleOffload(ctx context.Context, bound time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	if s.w.Backend == gateway.BackendSim {
		dl, _ := ctx.Deadline()
		return s.gw.WaitIdle(time.Until(dl))
	}
	// SyncRemoteStats is debounced to one sweep a second, so the node pings
	// (which carry the same gauge and are not debounced) do the polling.
	for {
		_, depth, err := s.remoteGauges(ctx)
		if err != nil {
			return err
		}
		if depth == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("settle: offload queue depth still %d: %w", depth, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// remoteGauges sums the node hosts' temporary bytes and offload backlog.
func (s *system) remoteGauges(ctx context.Context) (tempBytes, offloadDepth int64, err error) {
	nodes, err := s.gw.ProbeRemoteNodes(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, n := range nodes {
		if !n.Alive {
			return 0, 0, fmt.Errorf("node %d does not answer pings", n.ID)
		}
		tempBytes += n.TemporaryBytes
		offloadDepth += n.OffloadQueueDepth
	}
	return tempBytes, offloadDepth, nil
}

// gauges returns the live L1 temporary bytes and offload backlog.
func (s *system) gauges(ctx context.Context) (tempBytes, offloadDepth int64, err error) {
	if s.w.Backend == gateway.BackendTCP {
		return s.remoteGauges(ctx)
	}
	for _, st := range s.gw.Stats() {
		tempBytes += st.TemporaryBytes
		offloadDepth += st.OffloadQueueDepth
	}
	return tempBytes, offloadDepth, nil
}

// permanentBytes is the L2 coded bytes over all keys.
func (s *system) permanentBytes(ctx context.Context) (int64, error) {
	if s.w.Backend == gateway.BackendTCP {
		if err := s.gw.SyncRemoteStats(ctx); err != nil {
			return 0, err
		}
	}
	return s.gw.PermanentBytes(), nil
}

var errCloseTimeout = errors.New("close did not return within its bound")

// close tears the system down. A wedged handler can block Close forever
// (ROADMAP item 1), so every Close runs under bound; on expiry the stuck
// goroutine is abandoned and the caller fails the run.
func (s *system) close(bound time.Duration) error {
	err := boundedClose(bound, func() error {
		var first error
		if s.gw != nil {
			first = s.gw.Close()
		}
		for _, h := range s.hosts {
			if err := h.Close(); first == nil {
				first = err
			}
		}
		if s.cat != nil {
			if err := s.cat.Close(); first == nil {
				first = err
			}
		}
		return first
	})
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	return err
}

// boundedClose runs a Close that a wedged handler could block forever.
func boundedClose(bound time.Duration, closeFn func() error) error {
	done := make(chan error, 1)
	go func() { done <- closeFn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(bound):
		return errCloseTimeout
	}
}

// countingCatalog counts what the gateway logs and times each Append
// (fsync included) from outside the catalog.
type countingCatalog struct {
	inner gateway.Catalog

	mu      sync.Mutex
	appends int64
	records int64
	busy    time.Duration
}

func (c *countingCatalog) State() catalog.State { return c.inner.State() }

func (c *countingCatalog) Append(recs ...catalog.Record) error {
	start := time.Now()
	err := c.inner.Append(recs...)
	d := time.Since(start)
	c.mu.Lock()
	c.appends++
	c.records += int64(len(recs))
	c.busy += d
	c.mu.Unlock()
	return err
}
