package gateway

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// synthStats builds a stats snapshot from (ops, keys, topKeys) triples.
func synthStats(shards ...ShardStats) []ShardStats {
	for i := range shards {
		shards[i].Shard = i
	}
	return shards
}

func TestPlanMovesBalanced(t *testing.T) {
	stats := synthStats(
		ShardStats{Reads: 100, Keys: 3, TopKeys: []KeyLoad{{Key: "a", Ops: 40}}},
		ShardStats{Reads: 110, Keys: 3, TopKeys: []KeyLoad{{Key: "b", Ops: 40}}},
		ShardStats{Reads: 90, Keys: 3, TopKeys: []KeyLoad{{Key: "c", Ops: 40}}},
	)
	if moves := PlanMoves(stats); len(moves) != 0 {
		t.Fatalf("balanced shards produced moves: %+v", moves)
	}
}

func TestPlanMovesHotShard(t *testing.T) {
	stats := synthStats(
		ShardStats{Reads: 900, Keys: 3, TopKeys: []KeyLoad{
			{Key: "hot", Ops: 700}, {Key: "warm", Ops: 150}, {Key: "mild", Ops: 50},
		}},
		ShardStats{Reads: 50, Keys: 2, TopKeys: []KeyLoad{{Key: "x", Ops: 30}}},
		ShardStats{Reads: 40, Keys: 2, TopKeys: []KeyLoad{{Key: "y", Ops: 25}}},
	)
	moves := PlanMoves(stats)
	if len(moves) == 0 {
		t.Fatal("hot shard produced no moves")
	}
	first := moves[0]
	if first.Key != "hot" || first.From != 0 || first.To != 2 {
		t.Fatalf("first move = %+v, want hot: 0 -> 2 (coldest)", first)
	}
	// Projection: each planned move must act on the *projected* hottest
	// shard, and no key moves twice in one plan.
	seen := map[string]bool{}
	for _, m := range moves {
		if seen[m.Key] {
			t.Fatalf("key %q planned to move twice: %+v", m.Key, moves)
		}
		seen[m.Key] = true
	}
	if len(moves) > 4 {
		t.Fatalf("planned %d moves, exceeding the default cap: %+v", len(moves), moves)
	}
}

func TestPlanMovesSoleKeyStaysPut(t *testing.T) {
	// The entire hot load is one key on a one-key shard: moving it would
	// only relocate the hotspot.
	stats := synthStats(
		ShardStats{Reads: 900, Keys: 1, TopKeys: []KeyLoad{{Key: "hot", Ops: 900}}},
		ShardStats{Reads: 50, Keys: 2, TopKeys: []KeyLoad{{Key: "x", Ops: 30}}},
	)
	if moves := PlanMoves(stats); len(moves) != 0 {
		t.Fatalf("sole-key shard produced moves: %+v", moves)
	}
}

func TestPlanMovesCap(t *testing.T) {
	stats := synthStats(
		ShardStats{Reads: 10000, Keys: 20, TopKeys: []KeyLoad{
			{Key: "k1", Ops: 100}, {Key: "k2", Ops: 100}, {Key: "k3", Ops: 100},
			{Key: "k4", Ops: 100}, {Key: "k5", Ops: 100}, {Key: "k6", Ops: 100},
		}},
		ShardStats{Reads: 10, Keys: 1},
	)
	if moves := PlanMoves(stats); len(moves) != maxMoves {
		t.Fatalf("six hot keys planned %d moves, want the cap %d", len(moves), maxMoves)
	}
}

// TestRebalancerEndToEnd drives a skewed load, lets the Rebalancer plan
// from the real Stats() snapshot, and checks the hot key physically moves
// to the coldest shard with its data intact.
func TestRebalancerEndToEnd(t *testing.T) {
	g, err := New(Config{Shards: 3, Params: testParams(t, 4, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// A handful of keys per shard, then a heavy skew onto one key.
	for i := 0; i < 9; i++ {
		if _, err := g.Put(ctx, fmt.Sprintf("bg-%d", i), []byte("bg")); err != nil {
			t.Fatal(err)
		}
	}
	const hot = "celebrity"
	if _, err := g.Put(ctx, hot, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	hotShard := g.ShardFor(hot)
	for i := 0; i < 60; i++ {
		if _, _, err := g.Get(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRebalancer(g)
	plan := r.Plan()
	if len(plan.Moves) == 0 {
		t.Fatalf("no moves planned from skewed stats: %+v", g.Stats())
	}
	if plan.Moves[0].Key != hot {
		t.Fatalf("planner picked %q, want the hot key %q", plan.Moves[0].Key, hot)
	}
	executed, err := r.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed.Moves) == 0 {
		t.Fatal("rebalance executed no moves")
	}
	if got := g.ShardFor(hot); got == hotShard {
		t.Errorf("hot key still on shard %d after rebalance", got)
	}
	if v, _, err := g.Get(ctx, hot); err != nil || string(v) != "payload" {
		t.Fatalf("hot key after rebalance: %q, %v", v, err)
	}
}
