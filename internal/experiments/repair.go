package experiments

// Repair-bandwidth experiments: the quantitative case for storing the
// back-end layer under a regenerating code. Repairing one lost code
// element with the MBR code costs d helper payloads of beta symbols per
// stripe; the naive erasure-code repair (what a classic RS deployment
// does) fetches k full elements of alpha symbols each, decodes and
// re-encodes. MeasureRepairBandwidth measures both paths against the pure
// code; MeasureRepairLive stands up a real gateway + node-host fleet,
// injects corruption, and lets the anti-entropy pass of
// internal/gateway/repair.go heal it both ways, reporting the bytes that
// actually crossed the wire.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
)

// RepairPoint is one geometry's repair-bandwidth comparison for a single
// lost L2 element.
type RepairPoint struct {
	Params    lds.Params `json:"params"`
	ValueSize int        `json:"value_size"`
	// RegenBytes is the measured helper traffic of one regenerating repair
	// (d helper payloads); AnalyticRegen is d * HelperSize.
	RegenBytes    int64 `json:"regen_bytes"`
	AnalyticRegen int64 `json:"analytic_regen"`
	// NaiveBytes is the measured traffic of one decode-reencode repair
	// (k full elements); AnalyticNaive is k * ShardSize.
	NaiveBytes    int64 `json:"naive_bytes"`
	AnalyticNaive int64 `json:"analytic_naive"`
}

// Savings is the naive/regenerating bandwidth ratio (> 1 means the
// regenerating path transfers less).
func (p RepairPoint) Savings() float64 {
	if p.RegenBytes == 0 {
		return 0
	}
	return float64(p.NaiveBytes) / float64(p.RegenBytes)
}

// MeasureRepairBandwidth repairs one L2 element of a value of valueSize
// bytes both ways against the group's actual code and returns the measured
// and analytic byte counts. The repaired bytes are verified against the
// originals — a repair that transfers little but regenerates garbage would
// be worse than no repair.
func MeasureRepairBandwidth(p lds.Params, valueSize int) (RepairPoint, error) {
	code, err := p.NewCode()
	if err != nil {
		return RepairPoint{}, err
	}
	value := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(value)
	shards, err := code.Encode(value)
	if err != nil {
		return RepairPoint{}, err
	}
	failed := p.L2CodeIndex(0)

	out := RepairPoint{
		Params:        p,
		ValueSize:     valueSize,
		AnalyticRegen: int64(p.D) * int64(code.HelperSize(valueSize)),
		AnalyticNaive: int64(p.K) * int64(code.ShardSize(valueSize)),
	}

	// Regenerating path: d helpers, drawn from the surviving L2 elements
	// exactly as the gateway's repair scheduler draws its donors.
	helpers := make([]erasure.Helper, 0, p.D)
	for j := 1; j <= p.D; j++ {
		idx := p.L2CodeIndex(j)
		h, err := code.Helper(shards[idx], idx, failed)
		if err != nil {
			return RepairPoint{}, err
		}
		out.RegenBytes += int64(len(h))
		helpers = append(helpers, erasure.Helper{Index: idx, Data: h})
	}
	regen, err := code.Regenerate(failed, helpers)
	if err != nil {
		return RepairPoint{}, err
	}
	if !bytes.Equal(regen, shards[failed]) {
		return RepairPoint{}, fmt.Errorf("regenerated element differs from original")
	}

	// Naive path: k full elements, decode, re-encode the failed element.
	full := make([]erasure.Shard, 0, p.K)
	for j := 1; j <= p.K; j++ {
		idx := p.L2CodeIndex(j)
		out.NaiveBytes += int64(len(shards[idx]))
		full = append(full, erasure.Shard{Index: idx, Data: shards[idx]})
	}
	decoded, err := code.Decode(valueSize, full)
	if err != nil {
		return RepairPoint{}, err
	}
	naive, err := code.EncodeNode(decoded, failed)
	if err != nil {
		return RepairPoint{}, err
	}
	if !bytes.Equal(naive, shards[failed]) {
		return RepairPoint{}, fmt.Errorf("decode-reencode element differs from original")
	}
	return out, nil
}

// RepairLiveResult compares the wire bytes two real anti-entropy passes
// spent healing identical corruption: one through the regenerating helper
// path, one forced onto the naive decode-reencode fallback.
type RepairLiveResult struct {
	Params    lds.Params `json:"params"`
	ValueSize int        `json:"value_size"`
	Corrupted int        `json:"corrupted"`
	// RegenBytes / NaiveBytes are RepairReport.RepairBytes() of each run.
	RegenBytes int64 `json:"regen_bytes"`
	NaiveBytes int64 `json:"naive_bytes"`
}

// Savings is the naive/regenerating wire-bandwidth ratio.
func (r RepairLiveResult) Savings() float64 {
	if r.RegenBytes == 0 {
		return 0
	}
	return float64(r.NaiveBytes) / float64(r.RegenBytes)
}

// MeasureRepairLive runs the corruption-and-repair cycle against two
// identical in-process fleets (real TCP node hosts behind a gateway),
// differing only in RepairOptions.ForceNaive, and reports the repair
// bytes each pass fetched.
func MeasureRepairLive(p lds.Params, valueSize, keys, corrupt, nodes int) (RepairLiveResult, error) {
	out := RepairLiveResult{Params: p, ValueSize: valueSize}
	run := func(forceNaive bool) (int64, int, error) {
		hosts, err := startNodes(nodes)
		if err != nil {
			return 0, 0, err
		}
		defer hosts.close()
		gw, err := gateway.New(gateway.Config{
			Params:   p,
			PoolSize: 2,
			Repair:   &gateway.RepairOptions{ForceNaive: forceNaive},
			Topology: hosts.shards(1),
		})
		if err != nil {
			return 0, 0, err
		}
		defer gw.Close()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()

		value := make([]byte, valueSize)
		rand.New(rand.NewSource(2)).Read(value)
		for i := 0; i < keys; i++ {
			if _, err := gw.Put(ctx, fmt.Sprintf("repair-bw-%d", i), value); err != nil {
				return 0, 0, err
			}
		}
		// Wait for the offload pipeline to drain so every element is a
		// same-tag donor.
		var clean *gateway.ScrubReport
		deadline := time.Now().Add(60 * time.Second)
		for {
			report, err := gw.ScrubRemote(ctx)
			if err != nil {
				return 0, 0, err
			}
			settled := report.Clean() && len(report.Groups) > 0
			for _, g := range report.Groups {
				if g.RefTag.IsZero() {
					settled = false
				}
			}
			if settled {
				clean = report
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("scrub never settled before corruption")
			}
			time.Sleep(20 * time.Millisecond)
		}
		injected := 0
		for _, g := range clean.Groups {
			if injected == corrupt {
				break
			}
			for _, h := range hosts {
				if s := h.L2(g.NS, 0); s != nil {
					if s.CorruptStored() {
						injected++
					}
					break
				}
			}
		}
		if injected == 0 {
			return 0, 0, fmt.Errorf("corrupted no elements")
		}
		report, err := gw.RepairRemote(ctx)
		if err != nil {
			return 0, 0, err
		}
		if !report.After.Clean() {
			return 0, 0, fmt.Errorf("repair pass left the fleet dirty: %+v", report.After)
		}
		return report.RepairBytes(), injected, nil
	}

	regenBytes, injected, err := run(false)
	if err != nil {
		return out, fmt.Errorf("regenerating run: %w", err)
	}
	naiveBytes, _, err := run(true)
	if err != nil {
		return out, fmt.Errorf("naive run: %w", err)
	}
	out.RegenBytes = regenBytes
	out.NaiveBytes = naiveBytes
	out.Corrupted = injected
	return out, nil
}
