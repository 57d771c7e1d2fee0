package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/nodehost"
)

// GatewayProfile is one closed-loop run through a gateway.
type GatewayProfile struct {
	Backend   string
	Ops       int
	Elapsed   time.Duration
	OpsPerSec float64
	Read      LatencyProfile
	Write     LatencyProfile
}

// mixedLoad is the closed-loop workload every gateway experiment drives:
// clients client pairs, one writing and one reading, each striding a
// keyspace of keys keys back to back.
type mixedLoad struct {
	gw      *gateway.Gateway
	value   []byte
	keys    int
	clients int
}

// newMixedLoad creates every key of the workload up front, so key
// provisioning stays out of every measured run.
func newMixedLoad(ctx context.Context, gw *gateway.Gateway, valueSize, keys, clients int) (*mixedLoad, error) {
	for i := 0; i < keys; i++ {
		if err := gw.Ensure(ctx, loadKey(i)); err != nil {
			return nil, fmt.Errorf("ensure %s: %w", loadKey(i), err)
		}
	}
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	return &mixedLoad{gw: gw, value: value, keys: keys, clients: clients}, nil
}

func loadKey(i int) string { return fmt.Sprintf("hot-%d", i) }

// run drives opsPerClient operations per client and profiles them. The
// latency samples are preallocated, so the bookkeeping adds a fixed few
// allocations to a run, none per operation.
func (l *mixedLoad) run(ctx context.Context, backend string, opsPerClient int) (GatewayProfile, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		reads    = make([]time.Duration, l.clients*opsPerClient)
		writes   = make([]time.Duration, l.clients*opsPerClient)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	gw := l.gw
	for c := 0; c < l.clients; c++ {
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				i := c*opsPerClient + op
				key := loadKey(i % l.keys)
				t0 := time.Now()
				if _, err := gw.Put(ctx, key, l.value); err != nil {
					fail(err)
					return
				}
				writes[i] = time.Since(t0)
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				i := c*opsPerClient + op
				key := loadKey(i % l.keys)
				t0 := time.Now()
				if _, _, err := gw.Get(ctx, key); err != nil {
					fail(err)
					return
				}
				reads[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return GatewayProfile{}, firstErr
	}
	ops := len(reads) + len(writes)
	return GatewayProfile{
		Backend:   backend,
		Ops:       ops,
		Elapsed:   elapsed,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		Read:      profile(reads),
		Write:     profile(writes),
	}, nil
}

// nodeHosts is a fleet of node hosts serving on loopback.
type nodeHosts []*nodehost.Host

// startNodes starts n node hosts (ids 1..n) on free loopback ports.
func startNodes(n int) (nodeHosts, error) {
	hosts := make(nodeHosts, 0, n)
	for i := 0; i < n; i++ {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{})
		if err != nil {
			hosts.close()
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// shards returns a topology of the given number of tcp shards, each
// spread over every host.
func (hs nodeHosts) shards(n int) *gateway.Topology {
	specs := make([]gateway.NodeSpec, len(hs))
	for i, h := range hs {
		specs[i] = gateway.NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
	}
	top := &gateway.Topology{}
	for i := 0; i < n; i++ {
		top.Shards = append(top.Shards, gateway.ShardSpec{Backend: gateway.BackendTCP, Nodes: specs})
	}
	return top
}

func (hs nodeHosts) close() {
	for _, h := range hs {
		h.Close()
	}
}
