package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/wal"
)

// storeShards is the number of lock shards in the live-cascade store. A
// power of two so the shard index is a cheap mask; 64 keeps lock
// contention negligible up to hundreds of concurrent ingest streams.
const storeShards = 64

// Event is one streamed infection report: node reported/adopted the
// story of cascade Cascade at time Time. It is the WAL's record type, so
// an ingested event reaches the log and the replication stream as is.
type Event = wal.Event

// liveCascade is a cascade under construction plus ingest bookkeeping.
//
// nodes is the SI duplicate guard: the infected node ids, ascending,
// 4 bytes beside each 16-byte infection (the map it replaced cost ≈ 22
// and an allocation per new cascade). The test is a binary search and
// the update a memmove of 4 B × size — cheaper than the map up to a few
// thousand infections, the same order as the out-of-order time
// insertion below past that, and a live cascade never outgrows the
// model's universe because the guard itself forbids re-infection
// (BenchmarkStoreAppend has the curve).
type liveCascade struct {
	c       cascade.Cascade
	nodes   []int32
	flushed int // size at the last background flush
}

type storeShard struct {
	mu   sync.RWMutex
	live map[int]*liveCascade
}

// Store holds the live cascades the daemon is ingesting, sharded by
// cascade ID with per-shard locking so parallel POST /v1/events streams
// for different cascades never serialize on one mutex.
type Store struct {
	shards [storeShards]storeShard
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].live = make(map[int]*liveCascade)
	}
	return s
}

func (s *Store) shard(id int) *storeShard {
	// Hash negative IDs too; uint conversion keeps the mask in range.
	return &s.shards[uint(id)%storeShards]
}

// Append validates ev and appends it to its live cascade, creating the
// cascade on first sight. n bounds valid node ids (the current model's
// universe). Events may arrive slightly out of time order; the infection
// list is kept time-sorted by insertion. Returns the cascade's new size.
func (s *Store) Append(ev Event, n int) (int, error) {
	if ev.Cascade < 0 {
		return 0, fmt.Errorf("negative cascade id %d", ev.Cascade)
	}
	if ev.Node < 0 || ev.Node >= n {
		return 0, fmt.Errorf("node %d outside the model's universe [0,%d)", ev.Node, n)
	}
	if ev.Node > math.MaxInt32 {
		return 0, fmt.Errorf("node %d above the store's node id limit %d", ev.Node, math.MaxInt32)
	}
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
		return 0, fmt.Errorf("bad event time %v", ev.Time)
	}
	sh := s.shard(ev.Cascade)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lc, ok := sh.live[ev.Cascade]
	if !ok {
		lc = &liveCascade{c: cascade.Cascade{ID: ev.Cascade}}
		sh.live[ev.Cascade] = lc
	}
	at, infected := slices.BinarySearch(lc.nodes, int32(ev.Node))
	if infected {
		return len(lc.c.Infections), fmt.Errorf("node %d already infected in cascade %d (SI process forbids re-infection)", ev.Node, ev.Cascade)
	}
	lc.nodes = slices.Insert(lc.nodes, at, int32(ev.Node))
	inf := cascade.Infection{Node: ev.Node, Time: ev.Time}
	infs := lc.c.Infections
	// Insert keeping time order; the common case is an in-order append.
	i := len(infs)
	for i > 0 && infs[i-1].Time > ev.Time {
		i--
	}
	infs = append(infs, cascade.Infection{})
	copy(infs[i+1:], infs[i:])
	infs[i] = inf
	lc.c.Infections = infs
	return len(infs), nil
}

// Snapshot returns a deep copy of the live cascade, safe to read while
// ingestion continues, or false if the cascade is unknown.
func (s *Store) Snapshot(id int) (*cascade.Cascade, bool) {
	c := new(cascade.Cascade)
	if _, ok := s.SnapshotInto(id, c, nil); !ok {
		return nil, false
	}
	return c, true
}

// SnapshotInto is Snapshot into memory the caller owns: the infections
// are appended to arena (returned grown) and *c is pointed at them, so
// a request that computes on many cascades and keeps none copies them
// into one reusable block instead of allocating two objects apiece.
func (s *Store) SnapshotInto(id int, c *cascade.Cascade, arena []cascade.Infection) ([]cascade.Infection, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lc, ok := sh.live[id]
	if !ok {
		return arena, false
	}
	lo := len(arena)
	arena = append(arena, lc.c.Infections...)
	*c = cascade.Cascade{ID: lc.c.ID, Infections: arena[lo:len(arena):len(arena)]}
	return arena, true
}

// Size returns the live cascade's current infection count without
// copying it, or false if the cascade is unknown. For an append-only
// cascade (id, size) names a snapshot exactly, which is all a cache
// probe needs.
func (s *Store) Size(id int) (int, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lc, ok := sh.live[id]
	if !ok {
		return 0, false
	}
	return len(lc.c.Infections), true
}

// Len returns the number of live cascades.
func (s *Store) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.live)
		sh.mu.RUnlock()
	}
	return total
}

// FlushDirty snapshots every cascade that has at least two infections
// and has grown since its last flush, marking them flushed. These are
// the cascades worth feeding to System.Update for online refinement
// (singletons carry no likelihood signal). Results are ordered by
// cascade ID for determinism.
func (s *Store) FlushDirty() []*cascade.Cascade {
	var out []*cascade.Cascade
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, lc := range sh.live {
			if len(lc.c.Infections) >= 2 && len(lc.c.Infections) > lc.flushed {
				lc.flushed = len(lc.c.Infections)
				out = append(out, &cascade.Cascade{
					ID:         lc.c.ID,
					Infections: append([]cascade.Infection(nil), lc.c.Infections...),
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Unflush marks the given cascades dirty again: the flush that
// snapshotted them failed before a generation absorbed them, so the
// next FlushDirty must hand them out once more.
func (s *Store) Unflush(cs []*cascade.Cascade) {
	for _, c := range cs {
		sh := s.shard(c.ID)
		sh.mu.Lock()
		if lc, ok := sh.live[c.ID]; ok {
			lc.flushed = 0
		}
		sh.mu.Unlock()
	}
}

// AllEvents returns every infection of every live cascade as ingestion
// events, cascades ascending by id and each cascade's run in store
// order. It is the WAL compaction snapshot: replaying the result
// through Append rebuilds the store's exact live state — Append keeps
// reports that share a timestamp in arrival order, so the ids are
// sorted, never the events.
func (s *Store) AllEvents() []Event {
	var ids []int
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, lc := range sh.live {
			ids = append(ids, id)
			total += len(lc.c.Infections)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(ids)
	out := make([]Event, 0, total)
	for _, id := range ids {
		sh := s.shard(id)
		sh.mu.RLock()
		if lc, ok := sh.live[id]; ok {
			for _, inf := range lc.c.Infections {
				out = append(out, Event{Cascade: id, Node: inf.Node, Time: inf.Time})
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Clear drops every live cascade. The replication follower calls it
// before re-applying a fresh bootstrap snapshot after divergence — the
// local state is suspect, so it is rebuilt from scratch rather than
// merged.
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.live = make(map[int]*liveCascade)
		sh.mu.Unlock()
	}
}

// Evict removes a live cascade (e.g. after its story has gone cold),
// reporting whether it existed.
func (s *Store) Evict(id int) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.live[id]
	delete(sh.live, id)
	return ok
}
