// Package httpkit is the HTTP plumbing the daemon (internal/serve) and
// the fleet front-end (internal/router) share: the wire vocabulary of
// the batched data plane (wire.go, codec.go), the singleflight TTL
// cache, pooled JSON response writers, query and strict body decoding,
// the request-budget middleware with its deadline 503, request
// instrumentation, the HTTP server shell both processes run
// (server.go), and the fencing-epoch header name. It imports
// neither of its users — only the two types its codecs carry,
// wal.Event and core.Influencer — so the router speaks the daemon's
// wire conventions without linking the serving stack.
package httpkit

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Cache memoizes expensive read endpoints (influencer rankings, seed
// selection, merged fleet answers) for a bounded time, with
// singleflight-style deduplication: when many requests miss on the same
// key at once, exactly one computes the value and the rest block on its
// result instead of burning an O(n·k) computation each. Keys embed the
// model generation where one exists, so a hot reload or flush naturally
// invalidates everything cached against the previous model.
//
// A ranking is one entry, not one per length asked: the published order
// is a strict total order, so the first k of an exact top-k' are the
// exact top-k for every k ≤ k', and an entry records how many ranks it
// was filled for (DoCover).
type Cache struct {
	ttl time.Duration
	now func() time.Time

	mu        sync.Mutex
	entries   map[string]cacheEntry
	calls     map[string][]*cacheCall // flights per key, at most one per asked
	nextSweep time.Time
}

type cacheEntry struct {
	value any
	// asked is how many ranks a ranking was filled for — not its length:
	// a universe smaller than asked yields a shorter list that still
	// covers every k ≤ asked. Values that are not rankings carry 0.
	asked   int
	expires time.Time
}

type cacheCall struct {
	done      chan struct{}
	asked     int
	val       any
	cacheable bool // complete and error-free: what its waiters report as hit
	err       error
}

// MaxCacheEntries caps the entry map: the insert that finds it full
// sweeps at once, and resets the map if everything in it is still live.
// Below the cap the first put of each TTL window sweeps expired entries,
// so while anything is being cached a value outlives its expiry by less
// than one TTL, however rarely its own key is asked again.
const MaxCacheEntries = 4096

// NewCache builds a cache whose entries live for ttl on the clock now
// (time.Now in production; tests inject their own).
func NewCache(ttl time.Duration, now func() time.Time) *Cache {
	return &Cache{
		ttl:     ttl,
		now:     now,
		entries: make(map[string]cacheEntry),
		calls:   make(map[string][]*cacheCall),
	}
}

// DoCover returns the cached value for key if the live entry, or a
// flight already under way, was filled for at least need ranks (0 for a
// value that is not a ranking). Otherwise it runs fill for exactly need,
// once across concurrent callers, and stores the result iff fill calls
// it cacheable and it did not fail, unless a live longer entry is there.
// hit reports a value from the cache or from a shared cacheable flight;
// an uncacheable result (a partial fleet answer) or an error reaches
// every waiter of its flight with hit false and is never stored. A
// joiner stops waiting when its ctx expires, but the leader's ctx
// governs fill, so a leader with a short budget can fail its joiners.
// The value is shared between callers: cut it, never write to it.
func (c *Cache) DoCover(ctx context.Context, key string, need int, fill func() (val any, cacheable bool, err error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.asked >= need && c.now().Before(e.expires) {
		c.mu.Unlock()
		return e.value, true, nil
	}
	for _, call := range c.calls[key] {
		if call.asked < need {
			continue
		}
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.val, call.cacheable, call.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	call := &cacheCall{done: make(chan struct{}), asked: need}
	c.calls[key] = append(c.calls[key], call)
	c.mu.Unlock()

	val, cacheable, err := fill()
	call.val, call.cacheable, call.err = val, cacheable && err == nil, err

	c.mu.Lock()
	if flights := slices.DeleteFunc(c.calls[key], func(f *cacheCall) bool { return f == call }); len(flights) == 0 {
		delete(c.calls, key)
	} else {
		c.calls[key] = flights
	}
	if call.cacheable {
		now := c.now()
		if e, ok := c.entries[key]; !ok || e.asked <= need || !now.Before(e.expires) {
			c.putLocked(key, call.val, need, now)
		}
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}

// Len reports how many entries the cache holds, expired ones not yet
// swept included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// putLocked stores one entry, sweeping expired ones out first when the
// map is full or a TTL has passed since the last sweep (amortised O(1)
// a put); if the map is full of live entries it is reset whole (the
// cache is a performance aid, not a store).
func (c *Cache) putLocked(key string, val any, asked int, now time.Time) {
	if len(c.entries) >= MaxCacheEntries || !now.Before(c.nextSweep) {
		for k, e := range c.entries {
			if !now.Before(e.expires) {
				delete(c.entries, k)
			}
		}
		if len(c.entries) >= MaxCacheEntries {
			c.entries = make(map[string]cacheEntry)
		}
		c.nextSweep = now.Add(c.ttl)
	}
	c.entries[key] = cacheEntry{value: val, asked: asked, expires: now.Add(c.ttl)}
}
