package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/transport"
)

// crashed names the L1 and L2 servers a workload crashes before its first
// operation.
type crashed struct{ l1, l2 []int }

// runAtomicityWorkload drives concurrent writers and readers against a
// cluster, recording every completed operation, and checks the history
// against the paper's atomicity conditions (Theorem IV.9) plus the
// value-based cross-check; every operation must complete (Theorem IV.8).
// Crashes at seeded steps are the lds package's step tests
// (TestAtomicityWithCrashes).
func runAtomicityWorkload(t *testing.T, cfg Config, down crashed, writers, readers, opsPerClient int) {
	t.Helper()
	cluster, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer cluster.Close()
	for _, i := range down.l1 {
		cluster.CrashL1(i)
	}
	for _, i := range down.l2 {
		cluster.CrashL2(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	rec := history.NewRecorder()
	var wg sync.WaitGroup

	for w := 1; w <= writers; w++ {
		writer, err := cluster.Writer(int32(w))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(wid int32) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				value := fmt.Sprintf("w%d-op%d", wid, i)
				start := time.Now()
				tg, err := writer.Write(ctx, []byte(value))
				if err != nil {
					t.Errorf("writer %d op %d: %v", wid, i, err)
					return
				}
				rec.Add(history.Op{
					Kind: history.OpWrite, Client: wid,
					Start: start, End: time.Now(), Tag: tg, Value: value,
				})
			}
		}(int32(w))
	}
	for r := 1; r <= readers; r++ {
		reader, err := cluster.Reader(int32(r))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rid int32) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				start := time.Now()
				v, tg, err := reader.Read(ctx)
				if err != nil {
					t.Errorf("reader %d op %d: %v", rid, i, err)
					return
				}
				rec.Add(history.Op{
					Kind: history.OpRead, Client: rid,
					Start: start, End: time.Now(), Tag: tg, Value: string(v),
				})
			}
		}(int32(r))
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	ops := rec.Ops()
	if want := writers*opsPerClient + readers*opsPerClient; len(ops) != want {
		t.Fatalf("recorded %d ops, want %d", len(ops), want)
	}
	for _, v := range history.Verify(ops) {
		t.Errorf("atomicity violation: %v", v)
	}
	for _, v := range history.VerifyUniqueValues(ops, "") {
		t.Errorf("value-based violation: %v", v)
	}
	if v := cluster.Violations(); v != 0 {
		t.Errorf("internal invariant violations: %d", v)
	}
}

func TestAtomicityQuiescentNetwork(t *testing.T) {
	runAtomicityWorkload(t, Config{
		Params: MustParams(4, 5, 1, 1),
	}, crashed{}, 2, 2, 10)
}

func TestAtomicityChaosNetwork(t *testing.T) {
	runAtomicityWorkload(t, Config{
		Params:  MustParams(4, 5, 1, 1),
		Latency: transport.LatencyModel{ChaosMax: 2 * time.Millisecond},
		Seed:    1,
	}, crashed{}, 3, 3, 8)
}

func TestAtomicityChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runAtomicityWorkload(t, Config{
				Params:  MustParams(4, 5, 1, 1),
				Latency: transport.LatencyModel{ChaosMax: time.Millisecond},
				Seed:    seed,
			}, crashed{}, 2, 3, 6)
		})
	}
}

func TestAtomicityLargerCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("larger-cluster atomicity test skipped in -short mode")
	}
	runAtomicityWorkload(t, Config{
		Params:  MustParams(10, 12, 3, 3), // k=4, d=6
		Latency: transport.LatencyModel{ChaosMax: time.Millisecond},
		Seed:    4,
	}, crashed{}, 3, 3, 5)
}

func TestAtomicityManyWritersOneReader(t *testing.T) {
	runAtomicityWorkload(t, Config{
		Params:  MustParams(4, 5, 1, 1),
		Latency: transport.LatencyModel{ChaosMax: time.Millisecond},
		Seed:    6,
	}, crashed{}, 5, 1, 6)
}

func TestAtomicityBoundedJitterNetwork(t *testing.T) {
	runAtomicityWorkload(t, Config{
		Params: MustParams(4, 5, 1, 1),
		Latency: transport.LatencyModel{
			Tau0:   200 * time.Microsecond,
			Tau1:   300 * time.Microsecond,
			Tau2:   2 * time.Millisecond,
			Jitter: 0.8,
		},
		Seed: 8,
	}, crashed{}, 2, 2, 6)
}

// TestAtomicityF1F2Crashes runs the workload with the whole crash budget
// spent: f1 L1 and f2 L2 servers down under chaos delays.
func TestAtomicityF1F2Crashes(t *testing.T) {
	runAtomicityWorkload(t, Config{
		Params:  MustParams(5, 7, 2, 2),
		Latency: transport.LatencyModel{ChaosMax: time.Millisecond},
		Seed:    7,
	}, crashed{l1: []int{0, 3}, l2: []int{2, 5}}, 3, 3, 10)
}
