package gateway

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	core "github.com/lds-storage/lds/internal/lds"
)

// statsTopKeys is how many of a shard's hottest keys a snapshot reports.
const statsTopKeys = 8

// shard is one keyspace partition: a key→group map, the client pools of
// each group, a concurrency semaphore, the op counters, and the backend
// that builds its groups (in-process sim, or remote node processes over
// TCP). The map is guarded by mu; code that also needs routing state
// takes the gateway's route lock first (lock order: route.mu → shard.mu).
type shard struct {
	gw    *Gateway
	index int
	be    backend
	sem   chan struct{} // MaxOpsPerShard tokens

	mu        sync.Mutex
	objects   map[string]*object
	crashedL1 []int // applied to groups created after the crash call
	crashedL2 []int

	stats shardCounters
}

// shardCounters is the hot-path accounting; all fields are atomics so
// observers never contend. Reads/writes/bytes/latency count successful
// operations only — failures land exclusively in the error counters, so
// the hotness and mean-latency signals the rebalancer consumes are never
// skewed by a crashing or overloaded shard's failed attempts.
type shardCounters struct {
	reads        atomic.Uint64
	writes       atomic.Uint64
	readErrors   atomic.Uint64
	writeErrors  atomic.Uint64
	readBytes    atomic.Uint64
	writeBytes   atomic.Uint64
	readLatency  atomic.Int64 // cumulative ns over successful reads
	writeLatency atomic.Int64 // cumulative ns over successful writes

	// Anti-entropy accounting (repair.go): scrub sweeps that covered this
	// shard's groups, elements regenerated and installed, fetched repair
	// payload bytes, and failed repair attempts.
	repairScrubs  atomic.Uint64
	repairedElems atomic.Uint64
	repairBytes   atomic.Uint64
	repairErrors  atomic.Uint64
}

func newShard(g *Gateway, index int, be backend) *shard {
	return &shard{
		gw:      g,
		index:   index,
		be:      be,
		sem:     make(chan struct{}, g.cfg.MaxOpsPerShard),
		objects: make(map[string]*object),
	}
}

// acquire takes one of the shard's concurrency tokens; this is the
// gateway's backpressure point.
func (s *shard) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gateway: shard %d backpressure: %w", s.index, ctx.Err())
	}
}

func (s *shard) release() { <-s.sem }

// observe credits one write (or else read) to the shard's counters. Failed
// operations increment only their error counter: adding their payload and
// wall-clock time to the totals would dilute the exact per-shard load signal
// and skew the mean-latency derivations.
func (s *shard) observe(write bool, d time.Duration, payloadBytes int, err error) {
	switch {
	case write && err != nil:
		s.stats.writeErrors.Add(1)
	case write:
		s.stats.writes.Add(1)
		s.stats.writeBytes.Add(uint64(payloadBytes))
		s.stats.writeLatency.Add(int64(d))
	case err != nil:
		s.stats.readErrors.Add(1)
	default:
		s.stats.reads.Add(1)
		s.stats.readBytes.Add(uint64(payloadBytes))
		s.stats.readLatency.Add(int64(d))
	}
}

func (s *shard) crashL1(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashedL1 = append(s.crashedL1, i)
	for _, obj := range s.objects {
		obj.grp.CrashL1(i)
	}
}

func (s *shard) crashL2(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashedL2 = append(s.crashedL2, i)
	for _, obj := range s.objects {
		obj.grp.CrashL2(i)
	}
}

func (s *shard) temporaryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, obj := range s.objects {
		total += obj.grp.TemporaryStorageBytes()
	}
	return total
}

func (s *shard) permanentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, obj := range s.objects {
		total += obj.grp.PermanentStorageBytes()
	}
	return total
}

func (s *shard) snapshot() ShardStats {
	s.mu.Lock()
	keys := len(s.objects)
	var tmp, perm, offload int64
	top := make([]KeyLoad, 0, len(s.objects))
	for key, obj := range s.objects {
		tmp += obj.grp.TemporaryStorageBytes()
		perm += obj.grp.PermanentStorageBytes()
		offload += obj.grp.OffloadQueueDepth()
		top = append(top, KeyLoad{Key: key, Ops: obj.ops.Load()})
	}
	s.mu.Unlock()
	sort.Slice(top, func(i, j int) bool {
		if top[i].Ops != top[j].Ops {
			return top[i].Ops > top[j].Ops
		}
		return top[i].Key < top[j].Key // deterministic order on ties
	})
	if len(top) > statsTopKeys {
		top = top[:statsTopKeys:statsTopKeys]
	}
	return ShardStats{
		Shard:             s.index,
		Backend:           s.be.name(),
		Keys:              keys,
		Reads:             s.stats.reads.Load(),
		Writes:            s.stats.writes.Load(),
		ReadErrors:        s.stats.readErrors.Load(),
		WriteErrors:       s.stats.writeErrors.Load(),
		ReadBytes:         s.stats.readBytes.Load(),
		WriteBytes:        s.stats.writeBytes.Load(),
		ReadLatency:       time.Duration(s.stats.readLatency.Load()),
		WriteLatency:      time.Duration(s.stats.writeLatency.Load()),
		TemporaryBytes:    tmp,
		PermanentBytes:    perm,
		OffloadQueueDepth: offload,
		RepairScrubs:      s.stats.repairScrubs.Load(),
		RepairedElems:     s.stats.repairedElems.Load(),
		RepairBytes:       s.stats.repairBytes.Load(),
		RepairErrors:      s.stats.repairErrors.Load(),
		TopKeys:           top,
	}
}

// closeObjects tears down the shard's groups at gateway Close. With
// detach (the gateway has a durable catalog), groups that support it are
// detached instead of closed: node-held servers keep running for the next
// gateway process to re-adopt. Groups without a Detach (sim clusters,
// whose state lives in this process regardless) are closed either way.
func (s *shard) closeObjects(detach bool) {
	s.mu.Lock()
	objects := s.objects
	s.objects = make(map[string]*object)
	s.mu.Unlock()
	for _, obj := range objects {
		obj.retired.Store(true)
		if detach {
			if d, ok := obj.grp.(interface{ Detach() error }); ok {
				d.Detach()
				continue
			}
		}
		obj.grp.Close()
	}
}

// object is one key's LDS group plus its pooled clients. Pool channels
// hold idle clients; a checkout is a channel receive, so callers queue
// fairly and cheaply when a key is hot. The group may be an in-process
// sim.Cluster or a remoteGroup over node processes — everything from here
// down is backend-agnostic.
type object struct {
	grp     group
	ns      int32 // the group's transport namespace, recycled at reaping
	writers chan *core.Writer
	readers chan *core.Reader

	// ops counts operations routed to this key; the per-key hotness
	// signal behind ShardStats.TopKeys.
	ops atomic.Uint64

	// retired flips once the key's group has been handed off to another
	// shard (or the gateway closed): a client checked out of a retired
	// pool must be returned unused and the key's route re-resolved.
	// Migration sets it before releasing the quiesced clients, so any
	// checkout that succeeds afterwards observes it.
	retired atomic.Bool
}

func newObject(grp group, ns int32, poolSize int) (*object, error) {
	obj := &object{
		grp:     grp,
		ns:      ns,
		writers: make(chan *core.Writer, poolSize),
		readers: make(chan *core.Reader, poolSize),
	}
	// Client ids start at 1 (0 is reserved by the protocol's validation).
	// Distinct writer ids are what order concurrent writes with equal z.
	for i := 1; i <= poolSize; i++ {
		w, err := grp.Writer(int32(i))
		if err != nil {
			return nil, err
		}
		obj.writers <- w
		r, err := grp.Reader(int32(i))
		if err != nil {
			return nil, err
		}
		obj.readers <- r
	}
	return obj, nil
}

func (o *object) takeWriter(ctx context.Context) (*core.Writer, error) {
	select {
	case w := <-o.writers:
		return w, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("gateway: writer pool: %w", ctx.Err())
	}
}

func (o *object) putWriter(w *core.Writer) { o.writers <- w }

func (o *object) takeReader(ctx context.Context) (*core.Reader, error) {
	select {
	case r := <-o.readers:
		return r, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("gateway: reader pool: %w", ctx.Err())
	}
}

func (o *object) putReader(r *core.Reader) { o.readers <- r }

// quiesce checks out every pooled client, blocking until in-flight
// operations on the object have completed and preventing new ones from
// starting (they park on the empty pools). On success the caller holds
// exclusive use of the object's group; on ctx expiry every collected
// client is returned and the object is untouched.
func (o *object) quiesce(ctx context.Context) ([]*core.Writer, []*core.Reader, error) {
	var (
		ws = make([]*core.Writer, 0, cap(o.writers))
		rs = make([]*core.Reader, 0, cap(o.readers))
	)
	for len(ws) < cap(o.writers) || len(rs) < cap(o.readers) {
		select {
		case w := <-o.writers:
			ws = append(ws, w)
		case r := <-o.readers:
			rs = append(rs, r)
		case <-ctx.Done():
			o.restore(ws, rs)
			return nil, nil, fmt.Errorf("gateway: quiesce: %w", ctx.Err())
		}
	}
	return ws, rs, nil
}

// restore returns quiesced clients to their pools.
func (o *object) restore(ws []*core.Writer, rs []*core.Reader) {
	for _, w := range ws {
		o.putWriter(w)
	}
	for _, r := range rs {
		o.putReader(r)
	}
}

// KeyLoad is one key's share of a shard's operation count.
type KeyLoad struct {
	Key string `json:"key"`
	Ops uint64 `json:"ops"`
}

// ShardStats is a point-in-time snapshot of one shard's accounting:
// successful operation counts, payload bytes, cumulative operation
// latency over those successes (see MeanReadLatency/MeanWriteLatency),
// failure counts, and the live storage occupancy of the shard's groups.
// These are the load signals the rebalancer acts on.
type ShardStats struct {
	Shard int
	// Backend names the shard's group builder: "sim" for in-process
	// groups (whose storage gauges below are read live) or "tcp" for
	// groups on remote node processes (whose storage gauges are the last
	// control-plane sample — call Gateway.SyncRemoteStats to refresh).
	Backend        string
	Keys           int
	Reads          uint64 // successful reads
	Writes         uint64 // successful writes
	ReadErrors     uint64
	WriteErrors    uint64
	ReadBytes      uint64
	WriteBytes     uint64
	ReadLatency    time.Duration // cumulative, successful reads only
	WriteLatency   time.Duration // cumulative, successful writes only
	TemporaryBytes int64
	PermanentBytes int64
	// OffloadQueueDepth is the live occupancy of the shard's L1 -> L2
	// offload pipelines (queued plus in-flight batch elements, summed over
	// the shard's groups): the backlog signal of the asynchronous write
	// tail, distinct from TemporaryBytes which tracks the paper's
	// temporary-storage metric.
	OffloadQueueDepth int64
	// Anti-entropy counters (tcp shards; see repair.go): scrub sweeps that
	// covered this shard's groups, code elements regenerated and
	// installed, repair payload bytes fetched on the shard's behalf, and
	// failed repair attempts.
	RepairScrubs  uint64
	RepairedElems uint64
	RepairBytes   uint64
	RepairErrors  uint64
	// TopKeys lists the shard's hottest keys by per-key operation count,
	// descending — the signal the rebalancer's hot-key spread consumes.
	TopKeys []KeyLoad
}

// Ops returns the total successfully completed operations.
func (s ShardStats) Ops() uint64 { return s.Reads + s.Writes }

// MeanReadLatency is the mean duration of the shard's successful reads
// (zero when none completed). Errors are excluded by construction, so a
// shard failing fast never reads as "fast".
func (s ShardStats) MeanReadLatency() time.Duration {
	if s.Reads == 0 {
		return 0
	}
	return s.ReadLatency / time.Duration(s.Reads)
}

// MeanWriteLatency is the mean duration of the shard's successful writes
// (zero when none completed).
func (s ShardStats) MeanWriteLatency() time.Duration {
	if s.Writes == 0 {
		return 0
	}
	return s.WriteLatency / time.Duration(s.Writes)
}
