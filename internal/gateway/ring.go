package gateway

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the number of ring points per shard. 128 points keeps
// the expected load imbalance across shards to roughly 10% while the ring
// stays small enough to rebuild instantly.
const virtualNodes = 128

// maxShards bounds the shard count a ring accepts. A shard count reaches
// NewRing from -shards, from POST /v1/rebalance and from the catalog's
// Ring record, and NewRing formats and sorts virtualNodes points per shard
// before anything else looks at it; a Resize then builds that many shards
// and logs the count, so every later boot pays for it again. 1024 shards
// is 131,072 ring points (about 2 MiB, built in well under a second),
// hundreds of times the shard counts the gateway is deployed and measured
// at, while a typo such as 10000000 fails at once instead of allocating
// gigabytes.
const maxShards = 1024

// ErrShardCount reports a shard count outside [1, maxShards].
var ErrShardCount = errors.New("gateway: shard count out of range")

// Ring assigns keys to shards by consistent hashing: each shard owns a set
// of pseudo-random points on a 64-bit circle, and a key belongs to the
// shard owning the first point at or after the key's hash. The assignment
// is a pure function of (key, shard count) — stable
// across processes and runs — and changing the shard count from S to S+1
// remaps only ~1/(S+1) of the keyspace, every remapped key landing on the
// new shard (growing only adds shard-S points, so a key's successor point
// either survives or is preempted by a new one — never by another
// surviving shard's). That directional churn bound is what makes the
// gateway's online Resize incremental: rings are immutable values, and
// the gateway's router versions them — during a resize the outgoing
// ring's answers persist as per-key placement pins while keys drain, one
// live migration each, to the ring that replaced it (see gateway.go and
// migrate.go).
type Ring struct {
	shards int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the given number of shards, which must lie
// in [1, maxShards].
func NewRing(shards int) (*Ring, error) {
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("%w: %d, want 1..%d", ErrShardCount, shards, maxShards)
	}
	r := &Ring{
		shards: shards,
		points: make([]ringPoint, 0, shards*virtualNodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			h := hashString(fmt.Sprintf("shard-%d#%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // deterministic order on (vanishingly rare) collisions
	})
	return r, nil
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Shard returns the shard owning key.
func (r *Ring) Shard(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is MurmurHash3's 64-bit finalizer. FNV-1a alone has weak upper-bit
// avalanche for short keys that differ only near the end (sequential keys
// like "user-0001".."user-0059" hash into one narrow band and would all
// land in a single ring gap); the finalizer spreads every input bit over
// the whole word.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
