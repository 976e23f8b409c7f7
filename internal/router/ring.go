// Package router is the viralcast serving fleet's front-end: a
// stateless process that owns a static consistent-hash ring over N
// shard daemons (each an ordinary viralcastd started with -shard-id/
// -ring-size, optionally with a replication follower), routes
// cascade-scoped requests to the owning shard, and scatter-gathers the
// decomposable global queries across every shard, merging the
// per-shard k-bounded rankings into an answer byte-identical to a
// single daemon holding the whole model.
//
// This is the process-level lift of the paper's parallel thesis —
// disjoint row ownership, a barrier, then a merge — which
// core.TopInfluencersCtx applies to goroutines inside one process. Not
// to be confused with internal/cluster, which implements the paper's
// Ward *event clustering* (Fig 1): cluster groups news events into
// stories; router groups daemons into a serving fleet.
//
// The fan-out inherits the serving regime end to end: the per-request
// budget propagates to every shard call (minus a small merge reserve),
// fan-out parallelism is bounded on the worker pool, and a shard that
// is down or misses its deadline degrades the answer to an explicit
// partial ("partial": true plus the missing shard names, never cached)
// instead of failing the request — with a jittered retry against that
// shard's follower when one is configured.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodesPerShard is how many points each shard contributes to the
// ring. More vnodes smooth the key distribution across shards; 64 is
// plenty for single-digit fleets and keeps Owner a cheap binary search
// over a few hundred points.
const vnodesPerShard = 64

// ringPoint is one virtual node: a position on the hash circle owned
// by a shard index.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a static consistent-hash ring over shard indexes 0..size-1.
// It is immutable after construction — the fleet membership is fixed
// at router startup, which is what makes the routing deterministic:
// the same cascade id always lands on the same shard, across router
// restarts and across independent router processes given the same
// -shards list.
type Ring struct {
	size   int
	points []ringPoint
}

// NewRing builds the ring for a fleet of size shards. The vnode keys
// are derived from the shard *index*, never its address, so re-homing
// a shard to a new host or port does not move any cascade ownership.
func NewRing(size int) *Ring {
	if size < 1 {
		panic("router: ring size must be >= 1")
	}
	points := make([]ringPoint, 0, size*vnodesPerShard)
	for s := 0; s < size; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			points = append(points, ringPoint{
				hash:  hashKey(ShardName(s) + "#" + strconv.Itoa(v)),
				shard: s,
			})
		}
	}
	// Ties between distinct vnode hashes are broken by shard index so
	// the ring order is a pure function of size.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].shard < points[j].shard
	})
	return &Ring{size: size, points: points}
}

// Size returns the fleet size the ring was built for.
func (r *Ring) Size() int { return r.size }

// Owner maps a cascade id to the shard index that owns it: the first
// ring point at or clockwise of the key's hash.
func (r *Ring) Owner(cascadeID int) int {
	return r.OwnerKey("cascade:" + strconv.Itoa(cascadeID))
}

// OwnerKey maps an arbitrary routing key onto the ring. Used for the
// replicated reads that have no cascade id (rate lookups, seed and
// scenario relays) so repeated identical questions keep hitting the
// same shard's TTL cache.
func (r *Ring) OwnerKey(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's smallest point owns the top arc
	}
	return r.points[i].shard
}

// ShardName is the stable human-readable shard identifier used in
// missing_shards lists, /readyz bodies, and metrics keys.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// hashKey is 64-bit FNV-1a with a murmur3-style avalanche finisher:
// fast, dependency-free, and stable across processes and
// architectures (unlike maphash). The finisher matters — raw FNV of
// sequential keys ("cascade:0", "cascade:1", ...) clusters in narrow
// bands of the circle, starving some shards of ownership entirely;
// the avalanche spreads them uniformly.
func hashKey(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key)) //nolint:errcheck // fnv never fails
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
