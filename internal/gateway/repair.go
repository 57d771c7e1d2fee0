package gateway

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// This file is the gateway's anti-entropy loop: scrub the node-held code
// elements of every remote group against the group's highest stored tag,
// detect missing, stale and corrupt elements, and restore them with the
// regenerating code's repair procedure — d helper payloads of beta bytes
// per stripe — falling back to RS-style decode-reencode (k full elements)
// when not enough same-tag helpers survive. Repair traffic flows through a
// token bucket so a large repair backlog can never starve foreground
// operations, and everything repaired is accounted to the owning shard's
// counters.
//
// Only the permanent layer (L2) is scrubbed. L1 temporary storage drains
// through the offload pipeline by design, and a restarted L1 server
// rejoins its quorums empty — the paper's crash model already covers it.
// What the paper's model does not cover is the permanent layer losing
// redundancy silently (a dead node, bit rot on disk); that is exactly what
// this loop watches for. See Friedman, Kapelko and Marchwicki (2021): the
// persistency of an erasure-coded store is governed by its repair loop.

// RepairOptions tunes the repair subsystem.
type RepairOptions struct {
	// Interval is the background scrub-and-repair period; <= 0 disables
	// the background loop (explicit RepairRemote calls still work).
	Interval time.Duration
	// RateBytesPerSec bounds repair fetch traffic (helper and full-element
	// payloads), with bursts of up to one second's worth; <= 0 means
	// unlimited.
	RateBytesPerSec int64
	// ForceNaive disables the regenerating-code helper path and repairs
	// every element by decode-reencode from k full elements — the baseline
	// the bandwidth experiment (experiments.MeasureRepair) compares
	// against.
	ForceNaive bool
}

// GroupScrub is one remote group's scrub outcome.
type GroupScrub struct {
	NS    int32 `json:"ns"`
	Shard int   `json:"shard"`
	// Elements is n2, the number of code elements the group should hold.
	Elements int `json:"elements"`
	// Healthy elements store the reference tag with an intact digest.
	Healthy int `json:"healthy"`
	// Missing elements are not hosted although their owning node answered
	// (a restarted node that lost the group, or a partially served group).
	Missing int `json:"missing"`
	// Unknown elements live on nodes that did not answer the inventory.
	Unknown int `json:"unknown"`
	// Stale elements are intact but store a tag below the reference tag.
	Stale int `json:"stale"`
	// Corrupt elements fail their digest check (bit rot).
	Corrupt int `json:"corrupt"`
	// RefTag is the highest tag any hosted element stores — the scrub's
	// repair target.
	RefTag tag.Tag `json:"ref_tag"`
}

// Clean reports whether the group needs no repair.
func (g GroupScrub) Clean() bool {
	return g.Missing == 0 && g.Unknown == 0 && g.Stale == 0 && g.Corrupt == 0
}

// ScrubReport is a full scrub sweep over the gateway's remote groups.
type ScrubReport struct {
	Groups []GroupScrub `json:"groups"`
	// NodeErrors lists nodes that did not answer the inventory sweep.
	NodeErrors []string `json:"node_errors,omitempty"`
}

// Clean reports whether no group needs repair.
func (r *ScrubReport) Clean() bool {
	for _, g := range r.Groups {
		if !g.Clean() {
			return false
		}
	}
	return len(r.NodeErrors) == 0
}

// Totals sums the per-group counts.
func (r *ScrubReport) Totals() GroupScrub {
	var t GroupScrub
	t.NS = -1
	t.Shard = -1
	for _, g := range r.Groups {
		t.Elements += g.Elements
		t.Healthy += g.Healthy
		t.Missing += g.Missing
		t.Unknown += g.Unknown
		t.Stale += g.Stale
		t.Corrupt += g.Corrupt
	}
	return t
}

// RepairReport describes one RepairRemote pass.
type RepairReport struct {
	// Before is the scrub that drove the pass (after any structure
	// restore), After the closing verification scrub.
	Before ScrubReport `json:"before"`
	After  ScrubReport `json:"after"`
	// Reserved counts group slices re-served to nodes that had lost them
	// (structure restore; the elements themselves are then regenerated,
	// not booted from seed and left behind).
	Reserved int `json:"reserved"`
	// Repaired counts elements regenerated and installed; Regenerated of
	// those used the regenerating code's helper path, Naive the
	// decode-reencode fallback.
	Repaired    int `json:"repaired"`
	Regenerated int `json:"regenerated"`
	Naive       int `json:"naive"`
	// Skipped counts elements that could not be repaired this pass (not
	// enough same-tag healthy donors yet — the next pass retries).
	Skipped int `json:"skipped"`
	// HelperBytes / FullBytes split the fetched repair payload by path;
	// their sum is the pass's repair bandwidth.
	HelperBytes int64 `json:"helper_bytes"`
	FullBytes   int64 `json:"full_bytes"`
	// Errors lists the first few failures (RPC errors, install refusals).
	Errors []string `json:"errors,omitempty"`
}

// RepairBytes is the pass's total fetched repair payload.
func (r *RepairReport) RepairBytes() int64 { return r.HelperBytes + r.FullBytes }

// maxRepairErrors caps RepairReport.Errors.
const maxRepairErrors = 8

// tokenBucket is a simple byte-rate limiter for repair traffic.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second, and the bucket's capacity
	tokens float64
	last   time.Time
}

// newTokenBucket holds one second of rate; nil (no limit) when rate <= 0.
func newTokenBucket(rate int64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	return &tokenBucket{rate: float64(rate), tokens: float64(rate), last: time.Now()}
}

// take blocks until n bytes of budget are available (tokens may briefly go
// negative for requests larger than the bucket, which throttles the
// *following* fetch — a single element must never deadlock the bucket).
func (b *tokenBucket) take(ctx context.Context, n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	for {
		b.mu.Lock()
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.rate {
			b.tokens = b.rate
		}
		b.last = now
		if b.tokens >= float64(n) || b.tokens >= b.rate {
			b.tokens -= float64(n)
			b.mu.Unlock()
			return nil
		}
		need := float64(n)
		if need > b.rate {
			need = b.rate
		}
		wait := time.Duration((need - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// --- control RPC wrappers ---------------------------------------------------

func (m *remoteManager) elemFetch(ctx context.Context, nodeID, ns, index, failedIndex int32) (wire.ElemFetchResp, error) {
	fr, err := request[wire.ElemFetchResp](ctx, m, nodeID, func(seq uint64) wire.Message {
		return wire.ElemFetch{Seq: seq, Group: ns, Index: index, FailedIndex: failedIndex, ReplyAddr: m.advertise}
	})
	if err == nil && fr.Err != "" {
		err = fmt.Errorf("gateway: node %d: %s", nodeID, fr.Err)
	}
	return fr, err
}

func (m *remoteManager) elemRepair(ctx context.Context, nodeID int32, rep wire.ElemRepair) (wire.ElemRepairResp, error) {
	rr, err := request[wire.ElemRepairResp](ctx, m, nodeID, func(seq uint64) wire.Message {
		rep.Seq = seq
		rep.ReplyAddr = m.advertise
		return rep
	})
	if err == nil && rr.Err != "" {
		err = fmt.Errorf("gateway: node %d: %s", nodeID, rr.Err)
	}
	return rr, err
}

// --- scrub ------------------------------------------------------------------

// elemView is the scrubber's view of one expected element.
type elemView struct {
	node   int32 // owning node id (placement)
	stat   wire.ElemStat
	hosted bool // the owning node answered and listed the element
	known  bool // the owning node answered at all
}

// scrubGroup is the scrubber's working state for one remote group.
type scrubGroup struct {
	ns    int32
	sh    *shard
	elems []elemView // indexed by L2 server index
	ref   tag.Tag
}

// remoteTarget is one live remote group and the shard that owns it.
type remoteTarget struct {
	sh *shard
	rg *remoteGroup
}

// remoteTargets snapshots the live remote groups by namespace.
func (g *Gateway) remoteTargets() map[int32]remoteTarget {
	targets := make(map[int32]remoteTarget)
	for _, sh := range g.shardList() {
		sh.mu.Lock()
		for _, obj := range sh.objects {
			if rg, ok := obj.grp.(*remoteGroup); ok {
				targets[rg.ns] = remoteTarget{sh, rg}
			}
		}
		sh.mu.Unlock()
	}
	return targets
}

// scrub sweeps the targets' nodes with one bulk ElemInventory per node
// (through eachNode, as in sampleStats) and classifies every expected
// element of every group.
func (g *Gateway) scrub(ctx context.Context, targets map[int32]remoteTarget) ([]*scrubGroup, []string) {
	m := g.remote
	// Placement snapshot: per group, the node list; plus the distinct
	// node set of the whole sweep.
	groups := make([]*scrubGroup, 0, len(targets))
	nodeIDs := make(map[int32]bool)
	m.mu.Lock()
	for ns, t := range targets {
		info := m.groups[ns]
		if info == nil {
			continue
		}
		sg := &scrubGroup{ns: ns, sh: t.sh, elems: make([]elemView, g.cfg.Params.N2)}
		for i := range sg.elems {
			id := info.nodes[nodehost.AssignedNode(i, len(info.nodes))]
			sg.elems[i].node = id
			nodeIDs[id] = true
		}
		groups = append(groups, sg)
	}
	m.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].ns < groups[j].ns })

	ids := slices.Sorted(maps.Keys(nodeIDs))
	resps := make([]wire.ElemInventoryResp, len(ids))
	errs := make([]error, len(ids))
	eachNode(ctx, ids, func(ctx context.Context, i int, id int32) {
		resps[i], errs[i] = request[wire.ElemInventoryResp](ctx, m, id, func(seq uint64) wire.Message {
			return wire.ElemInventory{Seq: seq, Group: wire.AllGroups, ReplyAddr: m.advertise}
		})
	})

	var nodeErrors []string
	answered := make(map[int32]bool)
	byGroup := make(map[int32]map[int32]wire.ElemStat) // ns -> index -> stat
	for i, resp := range resps {
		if errs[i] != nil {
			nodeErrors = append(nodeErrors, fmt.Sprintf("node %d: %v", ids[i], errs[i]))
			continue
		}
		answered[ids[i]] = true
		for _, inv := range resp.Groups {
			elems := byGroup[inv.Group]
			if elems == nil {
				elems = make(map[int32]wire.ElemStat)
				byGroup[inv.Group] = elems
			}
			for _, e := range inv.Elems {
				elems[e.Index] = e
			}
		}
	}
	for _, sg := range groups {
		elems := byGroup[sg.ns]
		for i := range sg.elems {
			ev := &sg.elems[i]
			ev.known = answered[ev.node]
			if stat, ok := elems[int32(i)]; ok {
				ev.hosted = true
				ev.stat = stat
				if sg.ref.Less(stat.Tag) {
					sg.ref = stat.Tag
				}
			}
		}
	}
	return groups, nodeErrors
}

// report classifies a scrubGroup into counts.
func (sg *scrubGroup) report() GroupScrub {
	out := GroupScrub{NS: sg.ns, Shard: sg.sh.index, Elements: len(sg.elems), RefTag: sg.ref}
	for i := range sg.elems {
		ev := &sg.elems[i]
		switch {
		case !ev.known:
			out.Unknown++
		case !ev.hosted:
			out.Missing++
		case !ev.stat.Healthy:
			out.Corrupt++
		case ev.stat.Tag.Less(sg.ref):
			out.Stale++
		default:
			out.Healthy++
		}
	}
	return out
}

// ScrubRemote sweeps every remote group's node-held code elements and
// reports their health without repairing anything. It returns
// ErrNoTopology on a gateway without TCP shards.
func (g *Gateway) ScrubRemote(ctx context.Context) (*ScrubReport, error) {
	if g.remote == nil {
		return nil, ErrNoTopology
	}
	if err := g.beginOp(); err != nil {
		return nil, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	groups, nodeErrors := g.scrub(ctx, g.remoteTargets())
	report := &ScrubReport{NodeErrors: nodeErrors}
	for _, sg := range groups {
		sg.sh.stats.repairScrubs.Add(1)
		report.Groups = append(report.Groups, sg.report())
	}
	return report, g.opErr(ctx.Err())
}

// RepairRemote runs one full anti-entropy pass: scrub, restore lost group
// structure (re-serve, idempotent where the group survives), regenerate
// every stale or corrupt element from surviving same-tag elements —
// through the regenerating code's helper path when d donors exist, by
// decode-reencode from k donors otherwise — and verify with a closing
// scrub. Unlike ReprovisionRemote alone, a restarted node ends up holding
// the group's *current* committed elements, not its boot seed: redundancy
// is restored by repair, not by re-replication of stale state.
func (g *Gateway) RepairRemote(ctx context.Context) (*RepairReport, error) {
	if g.remote == nil {
		return nil, ErrNoTopology
	}
	if err := g.beginOp(); err != nil {
		return nil, err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	report, err := g.repairPass(ctx)
	return report, g.opErr(err)
}

// repairPass is RepairRemote's body; callers hold the op registration.
func (g *Gateway) repairPass(ctx context.Context) (*RepairReport, error) {
	m := g.remote
	report := &RepairReport{}
	fail := func(format string, args ...any) {
		if len(report.Errors) < maxRepairErrors {
			report.Errors = append(report.Errors, fmt.Sprintf(format, args...))
		}
	}
	targets := g.remoteTargets()

	// Pass 1: the per-node reconcile re-serves every group whose
	// structure is gone from a node (a restarted, amnesiac node). The
	// re-served slices boot at the group's seed; the element repair below
	// then brings them to the reference tag.
	_, reserved, errs := m.reconcile(ctx)
	report.Reserved = reserved
	for _, err := range errs {
		fail("reconcile %v", err)
	}
	// Scrub, so the freshly re-served slices appear (as stale elements at
	// the seed tag) and donor health is current.
	groups, nodeErrors := g.scrub(ctx, targets)
	for _, sg := range groups {
		sg.sh.stats.repairScrubs.Add(1)
		report.Before.Groups = append(report.Before.Groups, sg.report())
	}
	report.Before.NodeErrors = nodeErrors

	for _, sg := range groups {
		g.repairGroup(ctx, sg, report, fail)
	}

	// Closing verification scrub: what an operator (and the e2e test)
	// reads to call the fleet healthy again.
	groups, nodeErrors = g.scrub(ctx, targets)
	for _, sg := range groups {
		report.After.Groups = append(report.After.Groups, sg.report())
	}
	report.After.NodeErrors = nodeErrors
	return report, ctx.Err()
}

// repairGroup regenerates one group's stale and corrupt elements.
func (g *Gateway) repairGroup(ctx context.Context, sg *scrubGroup, report *RepairReport, fail func(string, ...any)) {
	params := g.cfg.Params
	code := g.code
	opts := g.cfg.Repair
	forceNaive := opts != nil && opts.ForceNaive

	// Donors: healthy elements already at the reference tag.
	type donor struct {
		index int32
		node  int32
	}
	var donors []donor
	var refValueLen int
	for i := range sg.elems {
		ev := &sg.elems[i]
		if ev.hosted && ev.stat.Healthy && ev.stat.Tag == sg.ref {
			donors = append(donors, donor{index: int32(i), node: ev.node})
			refValueLen = int(ev.stat.ValueLen)
		}
	}

	for i := range sg.elems {
		ev := &sg.elems[i]
		if !ev.known || !ev.hosted {
			continue // unreachable or unrestorable this pass
		}
		if ev.stat.Healthy && ev.stat.Tag == sg.ref {
			continue // nothing to do
		}
		failedCode := params.L2CodeIndex(i)
		var (
			coded []byte
			err   error
			bytes int64
		)
		switch {
		case !forceNaive && len(donors) >= params.D:
			// Regenerating path: d helper payloads of HelperSize bytes.
			helpers := make([]erasure.Helper, 0, params.D)
			for _, d := range donors[:params.D] {
				if terr := g.repairLimiter.take(ctx, int64(code.HelperSize(refValueLen))); terr != nil {
					err = terr
					break
				}
				resp, ferr := g.remote.elemFetch(ctx, d.node, sg.ns, d.index, int32(failedCode))
				if ferr != nil {
					err = ferr
					break
				}
				if resp.Tag != sg.ref {
					err = fmt.Errorf("donor %d moved to tag %v mid-repair", d.index, resp.Tag)
					break
				}
				bytes += int64(len(resp.Data))
				helpers = append(helpers, erasure.Helper{Index: params.L2CodeIndex(int(d.index)), Data: resp.Data})
			}
			if err == nil {
				coded, err = code.Regenerate(failedCode, helpers)
			}
			if err == nil {
				report.Regenerated++
				report.HelperBytes += bytes
			}
		case len(donors) >= params.K:
			// Naive fallback: decode the value from k full elements and
			// re-encode the failed element.
			shards := make([]erasure.Shard, 0, params.K)
			for _, d := range donors[:params.K] {
				if terr := g.repairLimiter.take(ctx, int64(code.ShardSize(refValueLen))); terr != nil {
					err = terr
					break
				}
				resp, ferr := g.remote.elemFetch(ctx, d.node, sg.ns, d.index, wire.FullElement)
				if ferr != nil {
					err = ferr
					break
				}
				if resp.Tag != sg.ref {
					err = fmt.Errorf("donor %d moved to tag %v mid-repair", d.index, resp.Tag)
					break
				}
				bytes += int64(len(resp.Data))
				shards = append(shards, erasure.Shard{Index: params.L2CodeIndex(int(d.index)), Data: resp.Data})
			}
			var value []byte
			if err == nil {
				value, err = code.Decode(refValueLen, shards)
			}
			if err == nil {
				coded, err = code.EncodeNode(value, failedCode)
			}
			if err == nil {
				report.Naive++
				report.FullBytes += bytes
			}
		default:
			report.Skipped++
			continue // not enough same-tag donors yet; the next pass retries
		}
		if err != nil {
			report.Skipped++
			sg.sh.stats.repairErrors.Add(1)
			fail("group %d element %d: %v", sg.ns, i, err)
			continue
		}
		rr, err := g.remote.elemRepair(ctx, ev.node, wire.ElemRepair{
			Group: sg.ns, Index: int32(i), Tag: sg.ref,
			ValueLen: int32(refValueLen), Coded: coded,
		})
		if err != nil {
			report.Skipped++
			sg.sh.stats.repairErrors.Add(1)
			fail("group %d element %d install: %v", sg.ns, i, err)
			continue
		}
		sg.sh.stats.repairBytes.Add(uint64(bytes))
		if rr.Installed {
			report.Repaired++
			sg.sh.stats.repairedElems.Add(1)
		} else {
			// A racing write superseded the repair — the element is newer
			// than the reference tag now, which is even healthier.
			report.Repaired++
		}
	}
}

// repairLoop is the background anti-entropy scheduler, started by New when
// Config.Repair has a positive Interval and the topology has TCP shards.
func (g *Gateway) repairLoop(interval time.Duration) {
	defer close(g.repairStopped)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.closeCtx.Done():
			return
		case <-ticker.C:
		}
		if _, err := g.RepairRemote(g.closeCtx); err != nil && err != ErrClosed {
			// Background repair is best-effort; failures surface through
			// the shard repair-error counters and the next HTTP-triggered
			// pass's report.
			continue
		}
	}
}
