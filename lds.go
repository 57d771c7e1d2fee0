// Package lds is a Go implementation of the Layered Data Storage (LDS)
// algorithm of Konwar, Prakash, Lynch and Médard ("A Layered Architecture
// for Erasure-Coded Consistent Distributed Storage", PODC 2017): a
// two-layer, erasure-coded, multi-writer multi-reader atomic storage
// service for edge-computing deployments.
//
// # Architecture
//
// Clients (writers and readers) talk only to the edge layer L1 (n1
// servers, tolerating f1 < n1/2 crashes). L1 provides temporary storage
// and low-latency access; it offloads data to the back-end layer L2 (n2
// servers, tolerating f2 < n2/3 crashes) as coded elements of a
// product-matrix minimum-bandwidth-regenerating (MBR) code. Reads that
// race concurrent writes are served values straight from L1; quiescent
// reads make L1 servers regenerate their coded elements from L2 via the
// code's repair procedure, paying Theta(1) total communication instead of
// the Theta(n1) of replication-based emulations.
//
// # Quick start
//
//	params, _ := lds.NewParams(6, 8, 1, 2) // n1, n2, f1, f2
//	cluster, _ := lds.NewCluster(lds.Config{Params: params})
//	defer cluster.Close()
//
//	w, _ := cluster.Writer(1)
//	r, _ := cluster.Reader(1)
//	tag, _ := w.Write(ctx, []byte("hello"))
//	value, rtag, _ := r.Read(ctx)
//
// NewCluster builds an in-process cluster on a simulated asynchronous
// network with configurable per-class latency bounds and crash injection;
// the same protocol code also runs over TCP (see cmd/lds-node), and a
// sharded multi-object front-end over many LDS groups lives in
// internal/gateway (see cmd/lds-gateway). The exported surface below is a
// facade over the internal packages; see README.md for the full system
// inventory and EXPERIMENTS.md for the paper-reproduction results.
package lds

import (
	"time"

	"github.com/lds-storage/lds/internal/abd"
	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/erasure/msr"
	"github.com/lds-storage/lds/internal/erasure/rs"
	core "github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
)

// Tag is a version tag (z, writerID); tags totally order writes.
type Tag = tag.Tag

// Params fixes the cluster geometry: layer sizes, fault tolerances and the
// derived code parameters (n1 = 2*f1 + k, n2 = 2*f2 + d).
type Params = core.Params

// NewParams derives Params from layer sizes and fault tolerances.
func NewParams(n1, n2, f1, f2 int) (Params, error) { return core.NewParams(n1, n2, f1, f2) }

// OffloadMode selects how L1 servers move committed values to L2: the
// default OffloadBatched pipeline (coalescing offload queue, one batch
// round in flight per server) or the paper-literal OffloadUnbatched
// per-commit fan-out.
type OffloadMode = core.OffloadMode

// Offload modes for Params.Offload.
const (
	OffloadBatched   = core.OffloadBatched
	OffloadUnbatched = core.OffloadUnbatched
)

// LatencyModel bounds per-link-class delays of the simulated network:
// Tau0 for L1-L1 links, Tau1 for client-L1 links, Tau2 for L1-L2 links.
type LatencyModel = transport.LatencyModel

// UniformLatency returns a model with the same bound on every link class.
func UniformLatency(d time.Duration) LatencyModel { return transport.Uniform(d) }

// Config describes a cluster for NewCluster.
type Config = sim.Config

// Cluster is an in-process LDS deployment on the simulated network.
type Cluster = sim.Cluster

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) { return sim.New(cfg) }

// Writer is an LDS write client; one Write at a time (well-formedness).
type Writer = core.Writer

// Reader is an LDS read client; one Read at a time.
type Reader = core.Reader

// Accountant measures communication per the paper's cost model: payload
// bytes (values, coded elements, helper data) normalized by value size,
// metadata excluded. Plug one into Config.Accountant.
type Accountant = cost.Accountant

// NewAccountant returns an empty traffic accountant.
func NewAccountant() *Accountant { return cost.NewAccountant() }

// Snapshot is a point-in-time copy of an Accountant's counters.
type Snapshot = cost.Snapshot

// Code is the storage-code interface: encode to n shards, decode from any
// k, plus the regenerating-code repair procedure (helper/regenerate).
type Code = erasure.Regenerating

// Shard is one node's coded content, tagged with its node index.
type Shard = erasure.Shard

// Helper is one helper node's repair contribution.
type Helper = erasure.Helper

// CodeParams carries {(n, k, d)} code parameters.
type CodeParams = erasure.Params

// NewMBRCode constructs the paper's product-matrix MBR code
// {(n, k, d)(alpha = d, beta = 1)} over GF(2^8).
func NewMBRCode(n, k, d int) (*mbr.Code, error) {
	return mbr.New(erasure.Params{N: n, K: k, D: d})
}

// NewMSRCode constructs a product-matrix MSR code at d = 2k-2 (used by the
// paper's Remark 1/2 ablations).
func NewMSRCode(n, k int) (*msr.Code, error) { return msr.New(n, k) }

// NewRSCode constructs a systematic (n, k) Reed-Solomon code, the baseline
// erasure code without bandwidth-efficient repair.
func NewRSCode(n, k int) (*rs.Code, error) { return rs.New(n, k) }

// NewRSRepairCode constructs an (n, k) Reed-Solomon code with naive repair
// (helpers ship whole shards): an MSR-point code at d = k, pluggable into
// Config.Code to reproduce Remark 1's read-cost blowup.
func NewRSRepairCode(n, k int) (*rs.RepairCode, error) { return rs.NewRepair(n, k) }

// ABDParams is the single-layer geometry of the ABD replication baseline.
type ABDParams = abd.Params

// ABDConfig describes an ABD cluster.
type ABDConfig = abd.Config

// ABDCluster is a running ABD register emulation, the replication
// comparator used throughout the paper.
type ABDCluster = abd.Cluster

// NewABDCluster builds and starts an ABD cluster.
func NewABDCluster(cfg ABDConfig) (*ABDCluster, error) { return abd.NewCluster(cfg) }

// Paper cost formulas (Section V), exposed so applications and benches can
// compare measurements against the closed forms.
var (
	// WriteCost is Lemma V.2's write communication cost.
	WriteCost = cost.WriteCostLDS
	// ReadCost is Lemma V.2's read communication cost.
	ReadCost = cost.ReadCostLDS
	// StorageCost is Lemma V.3's permanent storage cost.
	StorageCost = cost.StorageCostL2MBR
	// WriteLatencyBound is Lemma V.4's write duration bound.
	WriteLatencyBound = cost.WriteLatencyBound
	// ReadLatencyBound is Lemma V.4's read duration bound.
	ReadLatencyBound = cost.ReadLatencyBound
)
