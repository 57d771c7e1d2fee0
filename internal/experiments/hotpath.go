package experiments

// Hot-path allocation experiment, beyond the paper: the buffer-ownership
// refactor (pooled erasure scratch, append-style wire encoding, vectored
// TCP writes, recycled per-operation client and server state) claims that
// steady-state operations allocate almost nothing. This experiment holds
// the claim to numbers: it drives the same mixed put/get workload through
// a sim-backed and a TCP-backed gateway and reports heap bytes and heap
// objects allocated per operation, measured process-wide so the figure
// includes every server actor and transport goroutine serving the
// operation — not just the client call stack. The rows land in
// BENCH_hotpath.json, and BENCH_hotpath.baseline.json pins them in CI.

import (
	"context"
	"runtime"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
)

// HotPathProfile is one backend's allocation-per-operation measurement.
type HotPathProfile struct {
	Backend     string  `json:"backend"`
	Ops         int     `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// HotPathResult pairs the two backends under the identical workload.
type HotPathResult struct {
	ValueSize int            `json:"value_size"`
	Keys      int            `json:"keys"`
	Clients   int            `json:"clients"`
	Sim       HotPathProfile `json:"sim"`
	TCP       HotPathProfile `json:"tcp"`
}

// MeasureHotPath profiles allocations per operation on both gateway
// backends, a sim gateway and a tcp gateway whose two shards run on nodes
// loopback node hosts: clients concurrent client pairs (one writing, one
// reading) each drive opsPerClient operations of valueSize bytes over keys
// keys, after an untimed warmup round that fills the client pools and
// buffer pools the way a long-running process would.
func MeasureHotPath(p lds.Params, valueSize, keys, clients, opsPerClient, nodes int) (*HotPathResult, error) {
	res := &HotPathResult{ValueSize: valueSize, Keys: keys, Clients: clients}

	simGW, err := gateway.New(gateway.Config{
		Shards: 2, Params: p, PoolSize: clients,
	})
	if err != nil {
		return nil, err
	}
	defer simGW.Close()
	res.Sim, err = profileHotPath(gateway.BackendSim, simGW, valueSize, keys, clients, opsPerClient)
	if err != nil {
		return nil, err
	}

	hosts, err := startNodes(nodes)
	if err != nil {
		return nil, err
	}
	defer hosts.close()
	tcpGW, err := gateway.New(gateway.Config{
		Params: p, PoolSize: clients, Topology: hosts.shards(2),
	})
	if err != nil {
		return nil, err
	}
	defer tcpGW.Close()
	res.TCP, err = profileHotPath(gateway.BackendTCP, tcpGW, valueSize, keys, clients, opsPerClient)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func profileHotPath(backend string, gw *gateway.Gateway, valueSize, keys, clients, opsPerClient int) (HotPathProfile, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	load, err := newMixedLoad(ctx, gw, valueSize, keys, clients)
	if err != nil {
		return HotPathProfile{}, err
	}

	// Warmup: fill the per-shard client pools and every sync.Pool on the
	// path, so the measured window sees the steady state rather than the
	// one-time cost of growing scratch to the workload's sizes.
	warmup := opsPerClient / 4
	if warmup < gw.Shards()*2 {
		warmup = gw.Shards() * 2
	}
	if _, err := load.run(ctx, backend, warmup); err != nil {
		return HotPathProfile{}, err
	}

	// Two GC cycles park freed spans and flush stale sync.Pool victims so
	// the before/after counter delta reflects the workload alone.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := load.run(ctx, backend, opsPerClient)
	if err != nil {
		return HotPathProfile{}, err
	}
	runtime.ReadMemStats(&after)

	return HotPathProfile{
		Backend:     backend,
		Ops:         run.Ops,
		OpsPerSec:   run.OpsPerSec,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(run.Ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(run.Ops),
	}, nil
}
