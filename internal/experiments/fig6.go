package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/transport"
)

// Fig6Point is one point of the paper's Fig. 6: storage costs (in value
// units) as a function of the number of objects N.
type Fig6Point struct {
	Objects int
	L1Bound float64 // Lemma V.5 temporary-storage bound (constant in N)
	L2      float64 // permanent storage 2*N*n2/(k+1) (linear in N)
}

// Fig6Analytic evaluates the figure's two curves for the given system. The
// paper's instance is n1 = n2 = 100, k = d = 80, mu = tau2/tau1 = 10,
// theta = 100.
func Fig6Analytic(n1, n2, k, theta int, mu float64, objectCounts []int) []Fig6Point {
	out := make([]Fig6Point, 0, len(objectCounts))
	bound := cost.L1StorageBoundMultiObject(theta, n1, mu)
	for _, n := range objectCounts {
		out = append(out, Fig6Point{
			Objects: n,
			L1Bound: bound,
			L2:      cost.L2StorageMultiObject(n, n2, k),
		})
	}
	return out
}

// Fig6MeasuredPoint is one measured point of the scaled-down live rerun of
// the figure's experiment.
type Fig6MeasuredPoint struct {
	Objects   int
	PeakL1    float64 // measured peak temporary storage, value units
	SettledL2 float64 // measured settled permanent storage, value units
	L1Bound   float64 // Lemma V.5 bound at this geometry
	PaperL2   float64 // 2*N*n2/(k+1)
	Writes    int64
}

// Fig6Config parameterizes the live rerun.
type Fig6Config struct {
	Params    lds.Params // symmetric geometry (k = d) like the figure
	Tau1      time.Duration
	Mu        float64 // tau2 = mu * tau1
	Theta     int
	Ticks     int
	ValueSize int
	Seed      int64
}

// DefaultFig6Config returns a laptop-scale rerun of the figure's setup:
// the geometry is scaled down (the paper uses n1 = n2 = 100, k = d = 80),
// mu = 10 and the theta-per-tau1 write process are preserved.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Params: lds.Params{N1: 6, N2: 6, F1: 1, F2: 1, K: 4, D: 4},
		Tau1:   500 * time.Microsecond,
		Mu:     10,
		Theta:  3,
		Ticks:  10,

		ValueSize: 512,
		Seed:      1,
	}
}

// MeasureFig6 reruns the figure's experiment live for each object count
// N: N independent objects behind one gateway (one shard, hence one LDS
// group, per object), theta writes to distinct objects fired every tau1,
// storage sampled every tau1/2, then the settled storage once every
// offload has landed.
func MeasureFig6(ctx context.Context, cfg Fig6Config, objectCounts []int) ([]Fig6MeasuredPoint, error) {
	var out []Fig6MeasuredPoint
	for _, n := range objectCounts {
		pt, err := measureFig6Point(ctx, cfg, n)
		if err != nil {
			return out, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func measureFig6Point(ctx context.Context, cfg Fig6Config, n int) (Fig6MeasuredPoint, error) {
	theta := min(cfg.Theta, n)
	gw, err := gateway.New(gateway.Config{
		Shards: n,
		Params: cfg.Params,
		Latency: transport.LatencyModel{
			Tau0: cfg.Tau1,
			Tau1: cfg.Tau1,
			Tau2: time.Duration(cfg.Mu * float64(cfg.Tau1)),
		},
		Seed: cfg.Seed,
		// One writer per object is all the write load needs; the per-shard cap
		// must admit every co-located object since keys hash freely.
		PoolSize:       1,
		MaxOpsPerShard: n,
		// L2 holds v0's coded elements from the start, as the paper's
		// system model assumes.
		InitialValue: make([]byte, cfg.ValueSize),
	})
	if err != nil {
		return Fig6MeasuredPoint{}, err
	}
	defer gw.Close()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%d", i)
	}
	if err := gw.Ensure(ctx, keys...); err != nil {
		return Fig6MeasuredPoint{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	value := make([]byte, cfg.ValueSize)
	rng.Read(value)
	var (
		peakL1   int64
		writes   atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		// busy keeps the writers well-formed: a tick whose object
		// still has its previous write in flight forfeits that slot,
		// theta being an upper bound.
		busy = make([]atomic.Bool, n)
	)
	ticker := time.NewTicker(cfg.Tau1 / 2)
	defer ticker.Stop()
	for half := 1; half <= 2*cfg.Ticks; half++ {
		select {
		case <-ticker.C:
		case <-ctx.Done():
			wg.Wait()
			return Fig6MeasuredPoint{}, ctx.Err()
		}
		peakL1 = max(peakL1, gw.TemporaryBytes())
		if half%2 == 0 {
			continue
		}
		// Once per tau1: fire theta writes at distinct objects.
		for _, obj := range rng.Perm(n)[:theta] {
			if !busy[obj].CompareAndSwap(false, true) {
				continue
			}
			wg.Add(1)
			go func(obj int) {
				defer wg.Done()
				defer busy[obj].Store(false)
				if _, err := gw.Put(ctx, keys[obj], value); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				writes.Add(1)
			}(obj)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return Fig6MeasuredPoint{}, firstErr
	}

	// Every write's asynchronous tail must finish, after which all
	// temporary storage is garbage-collected.
	if err := gw.WaitIdle(30 * time.Second); err != nil {
		return Fig6MeasuredPoint{}, err
	}
	if tmp := gw.TemporaryBytes(); tmp != 0 {
		return Fig6MeasuredPoint{}, fmt.Errorf("N=%d: temporary storage %d bytes after settling, want 0", n, tmp)
	}
	unit := float64(cfg.ValueSize)
	return Fig6MeasuredPoint{
		Objects:   n,
		PeakL1:    float64(peakL1) / unit,
		SettledL2: float64(gw.PermanentBytes()) / unit,
		L1Bound:   cost.L1StorageBoundMultiObject(theta, cfg.Params.N1, cfg.Mu),
		PaperL2:   cost.L2StorageMultiObject(n, cfg.Params.N2, cfg.Params.K),
		Writes:    writes.Load(),
	}, nil
}
