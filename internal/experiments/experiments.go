// Package experiments implements the paper-reproduction harness: one
// function per table, figure or remark of the paper's evaluation (Section
// V), each returning the measured quantity next to the paper's closed-form
// prediction, plus the measurements beyond the paper (hot path, rebalance,
// repair). Each Measure function has one command: the root
// bench suite (bench_test.go) runs the paper's, the lds-bench command the
// others. EXPERIMENTS.md records the outputs.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/lds-storage/lds/internal/abd"
	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/rs"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// opTimeout bounds every client operation in the harness.
const opTimeout = 60 * time.Second

// idleTimeout bounds the post-operation drain.
const idleTimeout = 60 * time.Second

// quiescentRead is the link model of every quiescent LDS read. An L1
// server forgets a reader on its put-tag, so a put-tag that overtakes the
// server's regeneration from L2 cancels the coded element it would have
// sent, and the read's bill falls short by alpha/B per such server. 5 ms
// on the client links puts every put-tag 5 ms behind the last reply the
// reader waited for, long after every server has regenerated (L1<->L2 is
// instant), so each read pays the paper's full count.
var quiescentRead = transport.LatencyModel{Tau1: 5 * time.Millisecond}

// CommCostResult is a measured-vs-paper communication cost.
type CommCostResult struct {
	Params   lds.Params
	Measured float64 // normalized by value size
	Paper    float64
}

// Deviation returns |measured - paper| / paper.
func (r CommCostResult) Deviation() float64 {
	if r.Paper == 0 {
		return 0
	}
	d := (r.Measured - r.Paper) / r.Paper
	if d < 0 {
		return -d
	}
	return d
}

// MeasureWriteCost reproduces Lemma V.2's write cost: it runs one write on
// an otherwise idle cluster, waits for the internal write-to-L2 tail
// (which the paper's cost model charges to the write), and reports total
// payload bytes normalized by the value size.
func MeasureWriteCost(p lds.Params, valueSize int) (CommCostResult, error) {
	acc := cost.NewAccountant()
	cluster, err := sim.New(sim.Config{Params: p, Accountant: acc})
	if err != nil {
		return CommCostResult{}, err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	w, err := cluster.Writer(1)
	if err != nil {
		return CommCostResult{}, err
	}
	value := alignedValue(p, valueSize)
	acc.Reset()
	if _, err := w.Write(ctx, value); err != nil {
		return CommCostResult{}, err
	}
	if err := cluster.WaitIdle(idleTimeout); err != nil {
		return CommCostResult{}, err
	}
	return CommCostResult{
		Params:   p,
		Measured: acc.Snapshot().NormalizedPayload(len(value)),
		Paper:    cost.WriteCostLDS(p.N1, p.N2, p.K, p.D),
	}, nil
}

// MeasureReadCost reproduces Lemma V.2's read cost in both regimes.
//
// delta = 0: the read runs on a quiescent cluster whose values have been
// offloaded to L2, so every L1 server regenerates -- the Theta(1) case.
//
// delta > 0: the read races a concurrent write whose L1->L2 offload is slow
// (large tau2), so servers answer with full values -- the +n1 case.
func MeasureReadCost(p lds.Params, valueSize int, concurrent bool) (CommCostResult, error) {
	acc := cost.NewAccountant()
	latency := quiescentRead
	if concurrent {
		// A visible concurrency window: the value must still be in L1
		// while the read runs.
		latency = transport.LatencyModel{
			Tau0: 100 * time.Microsecond,
			Tau1: 100 * time.Microsecond,
			Tau2: 100 * time.Millisecond,
		}
	}
	cluster, err := sim.New(sim.Config{Params: p, Accountant: acc, Latency: latency})
	if err != nil {
		return CommCostResult{}, err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	w, err := cluster.Writer(1)
	if err != nil {
		return CommCostResult{}, err
	}
	r, err := cluster.Reader(1)
	if err != nil {
		return CommCostResult{}, err
	}
	value := alignedValue(p, valueSize)
	if _, err := w.Write(ctx, value); err != nil {
		return CommCostResult{}, err
	}
	if !concurrent {
		// Let the offload finish and the temporary copies drain.
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return CommCostResult{}, err
		}
	}
	acc.Reset()
	got, _, err := r.Read(ctx)
	if err != nil {
		return CommCostResult{}, err
	}
	if len(got) != len(value) {
		return CommCostResult{}, fmt.Errorf("read returned %d bytes, want %d", len(got), len(value))
	}
	readTraffic := acc.Snapshot()
	if !concurrent {
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return CommCostResult{}, err
		}
		readTraffic = acc.Snapshot()
	}
	// A concurrent write's deferred write-to-L2 offload may land inside the
	// read's window; the paper charges that traffic to the write (Section
	// II-d), so it is excluded from the read's bill here -- in both its
	// per-tag and batched forms.
	offload := readTraffic.KindPayload(wire.KindWriteCodeElem) +
		readTraffic.KindPayload(wire.KindWriteCodeElemBatch)
	measured := float64(readTraffic.TotalPayload()-offload) / float64(len(value))
	return CommCostResult{
		Params:   p,
		Measured: measured,
		Paper:    cost.ReadCostLDS(p.N1, p.N2, p.K, p.D, concurrent),
	}, nil
}

// StorageResult is a measured-vs-paper storage cost.
type StorageResult struct {
	Params    lds.Params
	Measured  float64 // normalized by value size
	Paper     float64
	Replicate float64 // what n2-way replication would cost (Fig. 6 text)
	MSR       float64 // what MSR codes would cost (Remark 2)
}

// MeasureStorageCost reproduces Lemma V.3: after writes settle, the L2
// layer stores n2 * alpha/B value units per object, independent of the
// number of writes performed.
func MeasureStorageCost(p lds.Params, valueSize, writes int) (StorageResult, error) {
	cluster, err := sim.New(sim.Config{Params: p})
	if err != nil {
		return StorageResult{}, err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	w, err := cluster.Writer(1)
	if err != nil {
		return StorageResult{}, err
	}
	value := alignedValue(p, valueSize)
	for i := 0; i < writes; i++ {
		if _, err := w.Write(ctx, value); err != nil {
			return StorageResult{}, err
		}
	}
	if err := cluster.WaitIdle(idleTimeout); err != nil {
		return StorageResult{}, err
	}
	if tmp := cluster.TemporaryStorageBytes(); tmp != 0 {
		return StorageResult{}, fmt.Errorf("temporary storage %d bytes after settling, want 0", tmp)
	}
	return StorageResult{
		Params:    p,
		Measured:  float64(cluster.PermanentStorageBytes()) / float64(len(value)),
		Paper:     cost.StorageCostL2MBR(p.N2, p.K, p.D),
		Replicate: cost.StorageCostL2Replication(p.N2),
		MSR:       cost.StorageCostL2MSR(p.N2, p.K),
	}, nil
}

// LatencyResult compares measured operation durations with the Lemma V.4
// bounds under the bounded-latency link model.
type LatencyResult struct {
	Params lds.Params

	Tau0, Tau1, Tau2 time.Duration

	WriteMax    time.Duration // slowest measured write
	WriteBound  time.Duration // 4*tau1 + 2*tau0
	ExtWriteMax time.Duration // write start -> system quiescent
	ExtBound    time.Duration // max(3*tau1+2*tau0+2*tau2, 4*tau1+2*tau0)
	ReadMax     time.Duration // slowest measured read
	ReadBound   time.Duration // max(6*tau1+2*tau2, 5*tau1+2*tau0+tau2)
}

// MeasureLatency reproduces Lemma V.4: run ops writes and reads
// sequentially under exact link delays (no jitter) and record the worst
// durations.
func MeasureLatency(p lds.Params, tau0, tau1, tau2 time.Duration, ops int) (LatencyResult, error) {
	cluster, err := sim.New(sim.Config{
		Params:  p,
		Latency: transport.LatencyModel{Tau0: tau0, Tau1: tau1, Tau2: tau2},
	})
	if err != nil {
		return LatencyResult{}, err
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*opTimeout)
	defer cancel()
	w, err := cluster.Writer(1)
	if err != nil {
		return LatencyResult{}, err
	}
	r, err := cluster.Reader(1)
	if err != nil {
		return LatencyResult{}, err
	}
	res := LatencyResult{
		Params: p,
		Tau0:   tau0, Tau1: tau1, Tau2: tau2,
		WriteBound: cost.WriteLatencyBound(tau0, tau1),
		ExtBound:   cost.ExtendedWriteLatencyBound(tau0, tau1, tau2),
		ReadBound:  cost.ReadLatencyBound(tau0, tau1, tau2),
	}
	value := alignedValue(p, 1<<10)
	for i := 0; i < ops; i++ {
		start := time.Now()
		if _, err := w.Write(ctx, value); err != nil {
			return LatencyResult{}, err
		}
		if d := time.Since(start); d > res.WriteMax {
			res.WriteMax = d
		}
		// The extended write ends when the offload tail has drained and all
		// temporary copies are garbage-collected (Lemma V.1's T_e).
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return LatencyResult{}, err
		}
		if d := time.Since(start); d > res.ExtWriteMax {
			res.ExtWriteMax = d
		}

		start = time.Now()
		if _, _, err := r.Read(ctx); err != nil {
			return LatencyResult{}, err
		}
		if d := time.Since(start); d > res.ReadMax {
			res.ReadMax = d
		}
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return LatencyResult{}, err
		}
	}
	return res, nil
}

// AblationResult compares the MBR back-end against a substituted code on
// the same cluster geometry (Remarks 1 and 2).
type AblationResult struct {
	Params lds.Params

	MBRReadCost  float64 // measured, delta = 0
	SubReadCost  float64 // measured with the substituted code
	MBRStorage   float64 // measured normalized L2 storage
	SubStorage   float64
	PaperMBR     float64 // Lemma V.2 read cost
	PaperSub     float64 // Remark 1 read cost at the substituted point
	StorageRatio float64 // measured MBR/substitute storage (Remark 2: <= 2)
}

// MeasureMSRAblation reproduces Remarks 1 and 2 on the symmetric geometry
// (k = d): the substituted code is an MSR-point code at d = k (Reed-Solomon
// with naive repair), which sends whole shards as helper data. Read cost is
// measured at delta = 0 so the regeneration path is exercised.
func MeasureMSRAblation(p lds.Params, valueSize int) (AblationResult, error) {
	if p.K != p.D {
		return AblationResult{}, fmt.Errorf("msr ablation wants the symmetric geometry k = d, got k=%d d=%d", p.K, p.D)
	}
	res := AblationResult{
		Params:   p,
		PaperMBR: cost.ReadCostLDS(p.N1, p.N2, p.K, p.D, false),
		PaperSub: cost.ReadCostMSRSubstitution(p.N1, p.N2, p.K, p.D, false),
	}

	// Align the value to whole stripes of both codes so neither leg carries
	// padding slack: the MBR stripe is B = k(2d-k+1)/2 bytes, the RS stripe
	// is k bytes, and B*k is a common multiple.
	stripe := cost.MBRFileSizeSymbols(p.K, p.D) * p.K
	value := make([]byte, ((valueSize+stripe-1)/stripe)*stripe)
	for i := range value {
		value[i] = byte(i * 131)
	}

	measure := func(code erasure.Regenerating) (readCost, storage float64, err error) {
		acc := cost.NewAccountant()
		cluster, err := sim.New(sim.Config{Params: p, Accountant: acc, Code: code, Latency: quiescentRead})
		if err != nil {
			return 0, 0, err
		}
		defer cluster.Close()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		w, err := cluster.Writer(1)
		if err != nil {
			return 0, 0, err
		}
		r, err := cluster.Reader(1)
		if err != nil {
			return 0, 0, err
		}
		if _, err := w.Write(ctx, value); err != nil {
			return 0, 0, err
		}
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return 0, 0, err
		}
		storage = float64(cluster.PermanentStorageBytes()) / float64(len(value))
		acc.Reset()
		if _, _, err := r.Read(ctx); err != nil {
			return 0, 0, err
		}
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return 0, 0, err
		}
		return acc.Snapshot().NormalizedPayload(len(value)), storage, nil
	}

	var err error
	if res.MBRReadCost, res.MBRStorage, err = measure(nil); err != nil {
		return res, fmt.Errorf("mbr leg: %w", err)
	}
	sub, err := newMSRPointCode(p)
	if err != nil {
		return res, err
	}
	if res.SubReadCost, res.SubStorage, err = measure(sub); err != nil {
		return res, fmt.Errorf("msr leg: %w", err)
	}
	if res.SubStorage > 0 {
		res.StorageRatio = res.MBRStorage / res.SubStorage
	}
	return res, nil
}

// OffloadLeg is one side of the batched-vs-unbatched offload comparison.
type OffloadLeg struct {
	// L1L2Messages is the mean L1<->L2 messages per write (both directions:
	// coded elements out, acks back).
	L1L2Messages float64
	// L1L2Payload is the mean L1->L2 payload per write in value units.
	L1L2Payload float64
	// WriteMean is the mean client-visible write latency.
	WriteMean time.Duration
	// Settle is the wall time from the first write until the network fully
	// quiesced (every offload round landed).
	Settle time.Duration
}

// OffloadComparison is the measured effect of the batched L2 offload
// pipeline under a sustained write burst whose commits outpace the
// L1->L2 round trips (tau2 >> tau1, the paper's edge setting).
type OffloadComparison struct {
	Params    lds.Params
	Writes    int
	Unbatched OffloadLeg
	Batched   OffloadLeg
}

// MessageReduction returns unbatched/batched L1<->L2 messages per write.
func (r OffloadComparison) MessageReduction() float64 {
	if r.Batched.L1L2Messages == 0 {
		return 0
	}
	return r.Unbatched.L1L2Messages / r.Batched.L1L2Messages
}

// MeasureOffloadBatching runs the same sequential write burst in both
// offload modes and reports per-write L1<->L2 traffic and latency. Writes
// complete in ~4*tau1 while an offload round takes 2*tau2, so several
// commits land during each round: the batched pipeline coalesces them
// (superseded tags never travel) while the unbatched mode pays the full
// n2 fan-out per commit.
func MeasureOffloadBatching(p lds.Params, valueSize, writes int, tau1, tau2 time.Duration) (OffloadComparison, error) {
	res := OffloadComparison{Params: p, Writes: writes}
	run := func(mode lds.OffloadMode) (OffloadLeg, error) {
		mp := p
		mp.Offload = mode
		acc := cost.NewAccountant()
		cluster, err := sim.New(sim.Config{
			Params:     mp,
			Accountant: acc,
			Latency:    transport.LatencyModel{Tau0: tau1, Tau1: tau1, Tau2: tau2},
		})
		if err != nil {
			return OffloadLeg{}, err
		}
		defer cluster.Close()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		w, err := cluster.Writer(1)
		if err != nil {
			return OffloadLeg{}, err
		}
		value := alignedValue(mp, valueSize)
		acc.Reset()
		start := time.Now()
		var writeTotal time.Duration
		for i := 0; i < writes; i++ {
			wStart := time.Now()
			if _, err := w.Write(ctx, value); err != nil {
				return OffloadLeg{}, err
			}
			writeTotal += time.Since(wStart)
		}
		if err := cluster.WaitIdle(idleTimeout); err != nil {
			return OffloadLeg{}, err
		}
		settle := time.Since(start)
		snap := acc.Snapshot()
		l1l2 := snap.PerClass[cost.L1L2]
		offloadPayload := snap.KindPayload(wire.KindWriteCodeElem) +
			snap.KindPayload(wire.KindWriteCodeElemBatch)
		return OffloadLeg{
			L1L2Messages: float64(l1l2.Messages) / float64(writes),
			L1L2Payload:  float64(offloadPayload) / float64(len(value)) / float64(writes),
			WriteMean:    writeTotal / time.Duration(writes),
			Settle:       settle,
		}, nil
	}
	var err error
	if res.Unbatched, err = run(lds.OffloadUnbatched); err != nil {
		return res, fmt.Errorf("unbatched leg: %w", err)
	}
	if res.Batched, err = run(lds.OffloadBatched); err != nil {
		return res, fmt.Errorf("batched leg: %w", err)
	}
	return res, nil
}

// ComparisonResult holds the LDS-vs-ABD numbers (the paper's motivating
// comparison against replication).
type ComparisonResult struct {
	Params lds.Params

	LDSWriteCost float64
	LDSReadCost  float64 // delta = 0
	LDSStorage   float64
	ABDWriteCost float64
	ABDReadCost  float64
	ABDStorage   float64
}

// MeasureABDComparison measures LDS and an n1-server ABD register under the
// same client operations.
func MeasureABDComparison(p lds.Params, valueSize int) (ComparisonResult, error) {
	res := ComparisonResult{Params: p}

	wc, err := MeasureWriteCost(p, valueSize)
	if err != nil {
		return res, err
	}
	rc, err := MeasureReadCost(p, valueSize, false)
	if err != nil {
		return res, err
	}
	sc, err := MeasureStorageCost(p, valueSize, 1)
	if err != nil {
		return res, err
	}
	res.LDSWriteCost, res.LDSReadCost, res.LDSStorage = wc.Measured, rc.Measured, sc.Measured

	acc := cost.NewAccountant()
	ab, err := abd.NewCluster(abd.Config{
		Params:     abd.Params{N: p.N1, F: p.F1},
		Accountant: acc,
	})
	if err != nil {
		return res, err
	}
	defer ab.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	w, err := ab.Writer(1)
	if err != nil {
		return res, err
	}
	r, err := ab.Reader(1)
	if err != nil {
		return res, err
	}
	value := alignedValue(p, valueSize)
	acc.Reset()
	if _, err := w.Write(ctx, value); err != nil {
		return res, err
	}
	if err := ab.WaitIdle(idleTimeout); err != nil {
		return res, err
	}
	res.ABDWriteCost = acc.Snapshot().NormalizedPayload(len(value))
	res.ABDStorage = float64(ab.StorageBytes()) / float64(len(value))
	acc.Reset()
	if _, _, err := r.Read(ctx); err != nil {
		return res, err
	}
	if err := ab.WaitIdle(idleTimeout); err != nil {
		return res, err
	}
	res.ABDReadCost = acc.Snapshot().NormalizedPayload(len(value))
	return res, nil
}

// newMSRPointCode builds the substituted back-end code for the ablation:
// an MSR-point code at d = k, realized as Reed-Solomon with naive repair.
func newMSRPointCode(p lds.Params) (erasure.Regenerating, error) {
	return rs.NewRepair(p.N1+p.N2, p.K)
}

// alignedValue returns a value of roughly the requested size rounded up to
// a whole number of stripes, so measured alpha/B ratios match the formulas
// exactly rather than carrying padding slack.
func alignedValue(p lds.Params, size int) []byte {
	b := cost.MBRFileSizeSymbols(p.K, p.D)
	stripes := (size + b - 1) / b
	if stripes < 1 {
		stripes = 1
	}
	value := make([]byte, stripes*b)
	for i := range value {
		value[i] = byte(i * 131)
	}
	return value
}
