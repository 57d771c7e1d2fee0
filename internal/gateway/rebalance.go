package gateway

// This file is the rebalancing control plane: it turns the per-shard load
// signals the gateway already collects (ShardStats) into key moves, and
// executes them with the live migration machinery (migrate.go). The
// paper's multi-object analysis (Fig. 6) assumes objects can be spread so
// per-node load stays bounded; this is the component that keeps that
// assumption true at runtime.

import (
	"context"
	"fmt"
)

// Move is one planned key migration.
type Move struct {
	Key  string `json:"key"`
	From int    `json:"from"`
	To   int    `json:"to"`
	// Ops is the key's operation count at planning time (why it was
	// picked).
	Ops uint64 `json:"ops"`
}

// Plan is a rebalancing proposal derived from one stats snapshot.
type Plan struct {
	// RingVersion is the routing epoch the plan was computed against.
	RingVersion int `json:"ring_version"`
	// Moves are hot-key spreads, in execution order.
	Moves []Move `json:"moves"`
}

// The rebalancing policy.
const (
	// imbalanceRatio triggers planning: moves are proposed while the
	// hottest shard's load exceeds this multiple of the mean shard load.
	imbalanceRatio = 1.5
	// maxMoves caps the moves per plan.
	maxMoves = 4
)

// PlanMoves computes hot-key spread moves from a per-shard stats
// snapshot: while some shard's load exceeds imbalanceRatio × the mean,
// its hottest keys move to the currently coldest shard, each move's
// effect projected onto the loads before the next pick. The function is
// pure — it never touches a gateway — so policies are unit-testable on
// synthetic snapshots.
//
// Load is the successful-operation count (ShardStats.Ops). A shard whose
// entire load is one key still sheds it to the coldest shard unless it
// holds no other key (moving the sole key would only relocate the
// hotspot, not shrink it).
func PlanMoves(stats []ShardStats) []Move {
	if len(stats) < 2 {
		return nil
	}
	load := make([]float64, len(stats))
	var total float64
	for i, s := range stats {
		load[i] = float64(s.Ops())
		total += load[i]
	}
	mean := total / float64(len(stats))
	if mean == 0 {
		return nil
	}
	// consumed tracks how far into each shard's TopKeys the planner has
	// picked; keys tracks remaining key counts for the sole-key rule.
	consumed := make([]int, len(stats))
	keysLeft := make([]int, len(stats))
	for i, s := range stats {
		keysLeft[i] = s.Keys
	}

	var moves []Move
	for len(moves) < maxMoves {
		hot, cold := hottest(load), coldest(load)
		if hot == cold || load[hot] <= imbalanceRatio*mean {
			break
		}
		if keysLeft[hot] <= 1 {
			break // relocating a sole key only moves the hotspot
		}
		top := stats[hot].TopKeys
		if consumed[hot] >= len(top) {
			break // snapshot carries no more per-key signal for this shard
		}
		pick := top[consumed[hot]]
		consumed[hot]++
		keysLeft[hot]--
		keysLeft[cold]++
		load[hot] -= float64(pick.Ops)
		load[cold] += float64(pick.Ops)
		moves = append(moves, Move{Key: pick.Key, From: stats[hot].Shard, To: stats[cold].Shard, Ops: pick.Ops})
	}
	return moves
}

func hottest(load []float64) int {
	best := 0
	for i, l := range load {
		if l > load[best] {
			best = i
		}
	}
	return best
}

func coldest(load []float64) int {
	best := 0
	for i, l := range load {
		if l < load[best] {
			best = i
		}
	}
	return best
}

// Rebalancer plans and executes hot-key spreads against one gateway.
type Rebalancer struct {
	gw *Gateway
}

// NewRebalancer wraps gw.
func NewRebalancer(gw *Gateway) *Rebalancer {
	return &Rebalancer{gw: gw}
}

// Plan snapshots the gateway's stats and computes the moves it would
// make, without executing anything.
func (r *Rebalancer) Plan() Plan {
	return Plan{
		RingVersion: r.gw.RingVersion(),
		Moves:       PlanMoves(r.gw.Stats()),
	}
}

// Rebalance plans once and executes every planned move as a live
// migration, returning the executed plan. Keys that raced a concurrent
// migration are skipped, not failed.
func (r *Rebalancer) Rebalance(ctx context.Context) (Plan, error) {
	plan := r.Plan()
	executed := Plan{RingVersion: plan.RingVersion}
	for _, m := range plan.Moves {
		switch err := r.gw.MigrateKey(ctx, m.Key, m.To); err {
		case nil:
			executed.Moves = append(executed.Moves, m)
		case ErrMigrating:
			// Another migration of this key is in flight; leave it be.
		default:
			return executed, fmt.Errorf("gateway: rebalance %q: %w", m.Key, err)
		}
	}
	return executed, nil
}
