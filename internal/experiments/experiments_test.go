package experiments

import (
	"context"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/lds"
)

// testParams is a small geometry with k = Theta(n2), d = Theta(n2), the
// regime of the paper's headline results.
func testParams(t *testing.T) lds.Params {
	t.Helper()
	p, err := lds.NewParams(6, 8, 1, 2) // k = 4, d = 4
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasureWriteCostMatchesLemmaV2(t *testing.T) {
	res, err := MeasureWriteCost(testParams(t), 4096)
	if err != nil {
		t.Fatalf("MeasureWriteCost: %v", err)
	}
	if res.Deviation() > 0.01 {
		t.Errorf("write cost measured %.3f vs paper %.3f (deviation %.1f%%)",
			res.Measured, res.Paper, 100*res.Deviation())
	}
}

func TestMeasureReadCostQuiescentMatchesLemmaV2(t *testing.T) {
	res, err := MeasureReadCost(testParams(t), 4096, false)
	if err != nil {
		t.Fatalf("MeasureReadCost: %v", err)
	}
	if res.Deviation() > 0.01 {
		t.Errorf("read cost (delta=0) measured %.3f vs paper %.3f (deviation %.1f%%)",
			res.Measured, res.Paper, 100*res.Deviation())
	}
}

func TestMeasureReadCostConcurrentWithinPaperWorstCase(t *testing.T) {
	p := testParams(t)
	res, err := MeasureReadCost(p, 4096, true)
	if err != nil {
		t.Fatalf("MeasureReadCost: %v", err)
	}
	// The paper's delta>0 figure is a worst case covering both the n1 full
	// values and the regeneration traffic. In the measured run every server
	// answers from its list, so the cost is the n1 value transfers (and can
	// even undercut the delta=0 regeneration bill, since no L2 round trips
	// happen at all); it must land between n1 and the paper's worst case.
	if res.Measured < float64(p.N1) {
		t.Errorf("concurrent read cost %.3f, want >= n1 = %d (each L1 server serves a value)",
			res.Measured, p.N1)
	}
	if res.Measured > res.Paper {
		t.Errorf("concurrent read cost %.3f exceeds paper worst case %.3f",
			res.Measured, res.Paper)
	}
}

func TestMeasureStorageCostMatchesLemmaV3(t *testing.T) {
	res, err := MeasureStorageCost(testParams(t), 4096, 3)
	if err != nil {
		t.Fatalf("MeasureStorageCost: %v", err)
	}
	if dev := res.Measured/res.Paper - 1; dev > 0.01 || dev < -0.01 {
		t.Errorf("storage measured %.3f vs paper %.3f", res.Measured, res.Paper)
	}
	if res.Measured >= res.Replicate {
		t.Errorf("MBR storage %.3f should be far below replication %.3f", res.Measured, res.Replicate)
	}
	if ratio := res.Measured / res.MSR; ratio > 2.001 {
		t.Errorf("MBR/MSR storage ratio %.3f violates Remark 2's bound of 2", ratio)
	}
}

func TestMeasureLatencyWithinLemmaV4Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	// Generous taus so protocol structure, not goroutine scheduling,
	// dominates: the simulated network adds up to ~1ms of timer slip per
	// hop, which the paper's zero-computation-time model does not charge.
	// 25% slack plus a fixed 10ms absorbs that overhead.
	res, err := MeasureLatency(testParams(t), 20*time.Millisecond, 20*time.Millisecond, 60*time.Millisecond, 2)
	if err != nil {
		t.Fatalf("MeasureLatency: %v", err)
	}
	slack := func(bound time.Duration) time.Duration {
		return bound + bound/4 + 10*time.Millisecond
	}
	if res.WriteMax > slack(res.WriteBound) {
		t.Errorf("write latency %v exceeds bound %v", res.WriteMax, res.WriteBound)
	}
	if res.ExtWriteMax > slack(res.ExtBound) {
		t.Errorf("extended write latency %v exceeds bound %v", res.ExtWriteMax, res.ExtBound)
	}
	if res.ReadMax > slack(res.ReadBound) {
		t.Errorf("read latency %v exceeds bound %v", res.ReadMax, res.ReadBound)
	}
}

func TestMeasureMSRAblationShowsRemarks1And2(t *testing.T) {
	// Symmetric geometry (k = d), the setting of both remarks.
	p, err := lds.NewParams(8, 8, 1, 1) // k = d = 6
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureMSRAblation(p, 2048)
	if err != nil {
		t.Fatalf("MeasureMSRAblation: %v", err)
	}
	// Remark 1: the MSR-point substitution pays Omega(n1) reads; MBR must
	// win by a wide margin at this geometry.
	if res.SubReadCost <= res.MBRReadCost {
		t.Errorf("MSR-point read cost %.3f should exceed MBR %.3f", res.SubReadCost, res.MBRReadCost)
	}
	if res.SubReadCost < float64(p.N1)/2 {
		t.Errorf("MSR-point read cost %.3f, want Omega(n1) ~ %d", res.SubReadCost, p.N1)
	}
	// Remark 2: MBR pays at most 2x storage.
	if res.StorageRatio > 2.001 {
		t.Errorf("storage ratio %.3f violates the <= 2 bound", res.StorageRatio)
	}
	if res.StorageRatio <= 1 {
		t.Errorf("storage ratio %.3f: MBR should cost more than MSR", res.StorageRatio)
	}
}

func TestMeasureOffloadBatchingReducesL1L2Messages(t *testing.T) {
	// An 80ms offload round trip against ~7ms writes: several commits land
	// during every round, overflowing lds.OffloadBatchCap, so the
	// batched pipeline must both coalesce messages and supersede tags
	// outright. The settled L2 state is identical either way (checked by
	// the lds-level equivalence test).
	p := testParams(t)
	res, err := MeasureOffloadBatching(p, 2048, 12, 500*time.Microsecond, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("MeasureOffloadBatching: %v", err)
	}
	// Unbatched: every commit fans out n2 elements and collects n2 acks on
	// every one of the n1 servers.
	if want := float64(2 * p.N1 * p.N2); res.Unbatched.L1L2Messages < want*0.9 {
		t.Errorf("unbatched leg moved %.1f L1<->L2 messages/write, want ~%.0f", res.Unbatched.L1L2Messages, want)
	}
	if res.MessageReduction() < 2 {
		t.Errorf("batching reduced L1<->L2 messages only %.2fx (unbatched %.1f vs batched %.1f per write)",
			res.MessageReduction(), res.Unbatched.L1L2Messages, res.Batched.L1L2Messages)
	}
	// Supersession must also shave payload: superseded tags never travel.
	if res.Batched.L1L2Payload >= res.Unbatched.L1L2Payload {
		t.Errorf("batched offload payload %.2f units/write, want < unbatched %.2f",
			res.Batched.L1L2Payload, res.Unbatched.L1L2Payload)
	}
}

func TestMeasureABDComparison(t *testing.T) {
	p := testParams(t)
	res, err := MeasureABDComparison(p, 4096)
	if err != nil {
		t.Fatalf("MeasureABDComparison: %v", err)
	}
	// Reads without concurrency: LDS is Theta(1), ABD is Theta(n).
	if res.LDSReadCost >= res.ABDReadCost {
		t.Errorf("LDS read cost %.3f should beat ABD %.3f", res.LDSReadCost, res.ABDReadCost)
	}
	// Storage: coded L2 beats n-way replication.
	if res.LDSStorage >= res.ABDStorage {
		t.Errorf("LDS storage %.3f should beat ABD replication %.3f", res.LDSStorage, res.ABDStorage)
	}
}

func TestFig6AnalyticShape(t *testing.T) {
	pts := Fig6Analytic(100, 100, 80, 100, 10, []int{1000, 10_000, 100_000, 1_000_000})
	if len(pts) != 4 {
		t.Fatal("wrong point count")
	}
	// L1 bound constant, L2 linear.
	for i := 1; i < len(pts); i++ {
		if pts[i].L1Bound != pts[0].L1Bound {
			t.Error("L1 bound should not depend on N")
		}
		if pts[i].L2 <= pts[i-1].L2 {
			t.Error("L2 should grow with N")
		}
	}
	// The figure's story: permanent storage dominates for large N.
	last := pts[len(pts)-1]
	if last.L2 <= last.L1Bound {
		t.Error("at N = 1e6 permanent storage must dominate")
	}
	// Per-object L2 below 3 units (the paper's closing observation).
	if perObj := last.L2 / 1e6; perObj >= 3 {
		t.Errorf("L2 per object %.3f, want < 3", perObj)
	}
}

func TestMeasureFig6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("live Fig. 6 rerun skipped in -short mode")
	}
	cfg := DefaultFig6Config()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Settled L2 is exactly n2 coded elements per object, however many
	// writes ran. MeasureFig6 itself fails unless L1 drained to 0.
	code, err := cfg.Params.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	settledL2 := func(objects int) float64 {
		return float64(objects*cfg.Params.N2*code.ShardSize(cfg.ValueSize)) / float64(cfg.ValueSize)
	}
	t.Run("small_system", func(t *testing.T) {
		pts, err := MeasureFig6(ctx, cfg, []int{2, 6})
		if err != nil {
			t.Fatalf("MeasureFig6: %v", err)
		}
		if len(pts) != 2 {
			t.Fatal("wrong point count")
		}
		for _, pt := range pts {
			if pt.Writes == 0 || pt.PeakL1 <= 0 {
				t.Errorf("N=%d: %d writes, peak L1 %.1f; the writes should occupy temporary storage", pt.Objects, pt.Writes, pt.PeakL1)
			}
			if pt.PeakL1 > pt.L1Bound {
				t.Errorf("N=%d: peak L1 %.1f exceeds Lemma V.5 bound %.1f", pt.Objects, pt.PeakL1, pt.L1Bound)
			}
			if want := settledL2(pt.Objects); pt.SettledL2 != want {
				t.Errorf("N=%d: settled L2 %.4f, want %.4f", pt.Objects, pt.SettledL2, want)
			}
			// Settled L2 equals the paper line up to stripe padding.
			if pt.SettledL2 < pt.PaperL2*0.99 || pt.SettledL2 > pt.PaperL2*1.5 {
				t.Errorf("N=%d: settled L2 %.1f vs paper %.1f", pt.Objects, pt.SettledL2, pt.PaperL2)
			}
		}
	})

	// theta = 0: no writes, nothing in L1, and L2 holds v0's elements.
	t.Run("zero_theta", func(t *testing.T) {
		cfg := cfg
		cfg.Theta, cfg.Ticks = 0, 2
		pts, err := MeasureFig6(ctx, cfg, []int{2})
		if err != nil {
			t.Fatalf("MeasureFig6 at theta 0: %v", err)
		}
		if pt := pts[0]; pt.Writes != 0 || pt.PeakL1 != 0 || pt.SettledL2 != settledL2(2) {
			t.Errorf("theta 0: %d writes, peak L1 %.1f, settled L2 %.4f; want 0, 0, %.4f",
				pt.Writes, pt.PeakL1, pt.SettledL2, settledL2(2))
		}
	})
}

func TestMeasureRingChurnNearIdeal(t *testing.T) {
	res, err := MeasureRingChurn([]int{2, 4}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res {
		if c.Moved > c.Ideal+0.06 {
			t.Errorf("S=%d: churn %.4f exceeds ideal %.4f + 0.06", c.Shards, c.Moved, c.Ideal)
		}
		if c.Moved == 0 {
			t.Errorf("S=%d: zero churn is implausible for a ring grow", c.Shards)
		}
	}
}

func TestMeasureMigrationCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("migration latency experiment in -short mode")
	}
	p, err := lds.NewParams(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureMigration(p, 512, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineRead.Ops != 30 || res.DuringRead.Ops != 30 {
		t.Errorf("phases recorded %d/%d reads, want 30/30", res.BaselineRead.Ops, res.DuringRead.Ops)
	}
	if res.DuringWrite.Ops != 30 {
		t.Errorf("migration phase recorded %d writes, want 30 (no write lost or failed)", res.DuringWrite.Ops)
	}
}

// TestMeasureHotPathSmoke keeps the allocation guard's sim and tcp set-up
// and the shared mixed load runnable at a tiny geometry.
func TestMeasureHotPathSmoke(t *testing.T) {
	p, err := lds.NewParams(3, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureHotPath(p, 256, 4, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []HotPathProfile{res.Sim, res.TCP} {
		if pr.Ops != 2*2*4 {
			t.Errorf("%s: %d ops, want %d", pr.Backend, pr.Ops, 16)
		}
		if pr.OpsPerSec <= 0 || pr.AllocsPerOp <= 0 {
			t.Errorf("%s: ops/s = %f, allocs/op = %f", pr.Backend, pr.OpsPerSec, pr.AllocsPerOp)
		}
	}
}
