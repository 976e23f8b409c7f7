package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"viralcast/internal/cascade"
	"viralcast/internal/features"
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
	maxNode int32 // the largest node id infected: the universe check without a scan

	// The early-adopter memo: the features of the first early infections
	// (those at or before the cutoff) under model generation gen, 0 for
	// none. It dies with the struct, so a Clear retires it too.
	early int32
	gen   uint64
	feats features.Set
}

type storeShard struct {
	mu   sync.RWMutex
	live map[int]*liveCascade
}

// Store holds the live cascades the daemon is ingesting, sharded by
// cascade ID with per-shard locking so parallel POST /v1/events streams
// for different cascades never serialize on one mutex.
type Store struct {
	shards  [storeShards]storeShard
	changes atomic.Uint64 // accepted Appends and Clears (Changes)
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
	lc.maxNode = max(lc.maxNode, int32(ev.Node))
	s.changes.Add(1)
	return len(infs), nil
}

// Snapshot returns a deep copy of the live cascade, safe to read while
// ingestion continues, or false if the cascade is unknown.
func (s *Store) Snapshot(id int) (*cascade.Cascade, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lc, ok := sh.live[id]
	if !ok {
		return nil, false
	}
	return &cascade.Cascade{ID: lc.c.ID, Infections: append([]cascade.Infection(nil), lc.c.Infections...)}, true
}

// earlyRead is what one prediction reads of a live cascade: the early
// prefix's features from its memo (hit) or, on a miss, snap, a copy of
// that prefix alone — nothing past the cutoff feeds a feature.
type earlyRead struct {
	lc      *liveCascade // nil: no such live cascade
	size    int
	maxNode int // at or past the universe: nothing more was read
	early   int // the early prefix's length
	hit     bool
	set     features.Set
	snap    cascade.Cascade
}

// readEarly fills r from live cascade id under generation gen, whose
// predictor cuts at cutoff over a universe of n nodes, copying a miss's
// early prefix into arena (returned grown). The memo holds when it was
// taken under gen on a prefix still intact, and that check is exact in
// O(1): Append keeps infections time-sorted and only inserts, so an
// event at or before the cutoff leaves an early infection at index
// early for good, and one after it never moves the prefix.
func (s *Store) readEarly(id int, gen uint64, cutoff float64, n int, r *earlyRead, arena []cascade.Infection) []cascade.Infection {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lc := sh.live[id]
	if lc == nil {
		*r = earlyRead{}
		return arena
	}
	infs := lc.c.Infections
	*r = earlyRead{lc: lc, size: len(infs), maxNode: int(lc.maxNode)}
	if r.maxNode >= n {
		return arena
	}
	if e := int(lc.early); lc.gen == gen && (e == len(infs) || infs[e].Time > cutoff) {
		r.early, r.hit, r.set = e, true, lc.feats
		return arena
	}
	r.early = sort.Search(len(infs), func(i int) bool { return infs[i].Time > cutoff })
	lo := len(arena)
	arena = append(arena, infs[:r.early]...)
	r.snap = cascade.Cascade{ID: id, Infections: arena[lo:len(arena):len(arena)]}
	return arena
}

// memoize files r.set as the features of r's early prefix under
// generation gen — in the struct r read, and only while it is still
// the live cascade: a Clear in between retired that history,
// and its features must not reach whatever took the id since.
func (s *Store) memoize(id int, r *earlyRead, gen uint64) {
	sh := s.shard(id)
	sh.mu.Lock()
	if lc := r.lc; sh.live[id] == lc {
		lc.early, lc.gen, lc.feats = int32(r.early), gen, r.set
	}
	sh.mu.Unlock()
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

// Changes is the store's change count: it moves on every accepted
// Append and every Clear, and never otherwise. A flush that finds the
// count its generation absorbed has nothing new to refit.
func (s *Store) Changes() uint64 { return s.changes.Load() }

// Cascades snapshots every live cascade a refit over an n-node model can
// use, ordered by cascade ID: those with at least two infections
// (singletons carry no likelihood signal) and every node inside the
// universe (a reload may have shrunk it below ids already ingested).
func (s *Store) Cascades(n int) []*cascade.Cascade {
	var out []*cascade.Cascade
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, lc := range sh.live {
			if len(lc.c.Infections) >= 2 && int(lc.maxNode) < n {
				out = append(out, &cascade.Cascade{
					ID:         lc.c.ID,
					Infections: append([]cascade.Infection(nil), lc.c.Infections...),
				})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
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
// before a re-bootstrap (divergence, a compacted cursor or a damaged
// mirror) streams the primary's log again from its oldest segment — the
// local state is suspect, so it is rebuilt from scratch rather than
// merged.
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.live = make(map[int]*liveCascade)
		sh.mu.Unlock()
	}
	s.changes.Add(1)
}
