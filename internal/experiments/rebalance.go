package experiments

// Rebalancing experiments, beyond the paper: the source paper's
// multi-object analysis (Fig. 6 discussion) assumes objects can be spread
// so per-node load stays bounded; internal/gateway now does that online.
// Two quantities characterize the mechanism: how much of the keyspace a
// ring resize S→S+1 remaps (the churn the consistent-hash ring promises
// to keep near 1/(S+1)), and what live key migration costs the key's own
// clients in tail latency while their object is handed between groups.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/transport"
)

// ChurnResult is one row of the ring-churn table.
type ChurnResult struct {
	Shards int     // S, before the grow
	Moved  float64 // fraction of sampled keys remapped by S -> S+1
	Ideal  float64 // 1/(S+1), the consistent-hashing expectation
}

// MeasureRingChurn samples the fraction of a keyspace remapped when the
// ring grows from S to S+1 shards, for each S in shardCounts. This is the
// fraction of keys an online Resize must actually migrate.
func MeasureRingChurn(shardCounts []int, sampleKeys int) ([]ChurnResult, error) {
	out := make([]ChurnResult, 0, len(shardCounts))
	for _, s := range shardCounts {
		a, err := gateway.NewRing(s)
		if err != nil {
			return nil, err
		}
		b, err := gateway.NewRing(s + 1)
		if err != nil {
			return nil, err
		}
		moved := 0
		for i := 0; i < sampleKeys; i++ {
			key := fmt.Sprintf("churn-key-%06d", i)
			if a.Shard(key) != b.Shard(key) {
				moved++
			}
		}
		out = append(out, ChurnResult{
			Shards: s,
			Moved:  float64(moved) / float64(sampleKeys),
			Ideal:  1 / float64(s+1),
		})
	}
	return out, nil
}

// LatencyProfile summarizes one phase's per-operation latencies.
type LatencyProfile struct {
	Ops  int
	Mean time.Duration
	P99  time.Duration
	Max  time.Duration
}

func profile(samples []time.Duration) LatencyProfile {
	if len(samples) == 0 {
		return LatencyProfile{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return LatencyProfile{
		Ops:  len(samples),
		Mean: sum / time.Duration(len(samples)),
		P99:  samples[len(samples)*99/100],
		Max:  samples[len(samples)-1],
	}
}

// MigrationResult compares a key's client-observed latency with and
// without live migrations running against that same key.
type MigrationResult struct {
	Migrations    int
	BaselineRead  LatencyProfile
	BaselineWrite LatencyProfile
	DuringRead    LatencyProfile
	DuringWrite   LatencyProfile
}

// MeasureMigration runs continuous concurrent reads and writes against
// one key through a gateway and measures their latency in two phases:
// first undisturbed (baseline), then while the key is migrated between
// shards `migrations` times. The delta — concentrated in the tail, since
// only operations parked across a quiesce/handoff window pay it — is the
// client-visible cost of a live migration.
func MeasureMigration(p lds.Params, valueSize, opsPerPhase, migrations int) (MigrationResult, error) {
	gw, err := gateway.New(gateway.Config{
		Shards: 3,
		Params: p,
		Latency: transport.LatencyModel{
			Tau0: 200 * time.Microsecond,
			Tau1: 200 * time.Microsecond,
			Tau2: time.Millisecond,
		},
		Seed:     42,
		PoolSize: 2,
	})
	if err != nil {
		return MigrationResult{}, err
	}
	defer gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()

	// One key, one client pair: every operation is on the migrating key.
	load, err := newMixedLoad(ctx, gw, valueSize, 1, 1)
	if err != nil {
		return MigrationResult{}, err
	}
	base, err := load.run(ctx, gateway.BackendSim, opsPerPhase)
	if err != nil {
		return MigrationResult{}, err
	}
	key := loadKey(0)
	performed := 0
	migrated := make(chan error, 1)
	go func() {
		for m := 0; m < migrations; m++ {
			to := (gw.ShardFor(key) + 1) % gw.Shards()
			if err := gw.MigrateKey(ctx, key, to); err != nil {
				migrated <- fmt.Errorf("migration %d: %w", m, err)
				return
			}
			performed++
		}
		migrated <- nil
	}()
	during, err := load.run(ctx, gateway.BackendSim, opsPerPhase)
	if merr := <-migrated; err == nil {
		err = merr
	}
	if err != nil {
		return MigrationResult{}, err
	}
	return MigrationResult{
		Migrations:    performed,
		BaselineRead:  base.Read,
		BaselineWrite: base.Write,
		DuringRead:    during.Read,
		DuringWrite:   during.Write,
	}, nil
}
