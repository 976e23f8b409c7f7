// Package httpkit is the HTTP plumbing the daemon (internal/serve) and
// the fleet front-end (internal/router) share: the wire vocabulary of
// the batched data plane (wire.go, codec.go), the singleflight TTL
// cache, pooled JSON response writers, query and strict body decoding,
// the request-budget middleware with its deadline 503, request
// instrumentation, and the fencing-epoch header name. It imports
// neither of its users — only the two types its codecs carry,
// wal.Event and core.Influencer — so the router speaks the daemon's
// wire conventions without linking the serving stack.
package httpkit

import (
	"context"
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
type Cache struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	entries map[string]cacheEntry
	calls   map[string]*cacheCall
}

type cacheEntry struct {
	value   any
	expires time.Time
}

type cacheCall struct {
	done chan struct{}
	val  any
	err  error
}

// MaxCacheEntries triggers an expired-entry sweep; the working set of
// distinct (endpoint, params, generation) keys is tiny, so this only
// guards against unbounded growth from adversarial query strings.
const MaxCacheEntries = 4096

// NewCache builds a cache whose entries live for ttl on the clock now
// (time.Now in production; tests inject their own).
func NewCache(ttl time.Duration, now func() time.Time) *Cache {
	return &Cache{
		ttl:     ttl,
		now:     now,
		entries: make(map[string]cacheEntry),
		calls:   make(map[string]*cacheCall),
	}
}

// Do returns the cached value for key, or runs fill — once across
// concurrent callers — and stores the result iff fill says it may be
// cached. hit reports whether the value came from cache (a singleflight
// wait counts as a hit: the work was shared). A result fill marks
// uncacheable (a partial fleet answer) is delivered to every waiter of
// the flight but never stored, so the next request recomputes; errors
// are likewise never cached, so a transient failure does not poison the
// key for a full TTL.
//
// A caller that joins an in-flight computation stops waiting when its
// ctx expires (the computation itself continues for the callers still
// interested; fill is responsible for honoring its own context). The
// singleflight leader's ctx governs the computation, so a leader with a
// short budget can fail followers that joined it.
func (c *Cache) Do(ctx context.Context, key string, fill func() (val any, cacheable bool, err error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && c.now().Before(e.expires) {
		c.mu.Unlock()
		return e.value, true, nil
	}
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.val, true, call.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	call := &cacheCall{done: make(chan struct{})}
	c.calls[key] = call
	c.mu.Unlock()

	var cacheable bool
	call.val, cacheable, call.err = fill()

	c.mu.Lock()
	delete(c.calls, key)
	if call.err == nil && cacheable {
		c.putLocked(key, call.val, c.now().Add(c.ttl))
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}

// PeekAll probes a whole batch of keys under one lock acquisition:
// out[i] receives the live cached value for keys[i], untouched slots
// stay as the caller left them. Empty keys mark slots excluded from
// caching (per-item errors) and are skipped. Unlike Do there is no
// singleflight join — a batched caller computes its misses itself in
// one blocked pass, which is cheaper than parking per-key.
func (c *Cache) PeekAll(keys []string, out []any) (hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for i, k := range keys {
		if k == "" {
			continue
		}
		if e, ok := c.entries[k]; ok && now.Before(e.expires) {
			out[i] = e.value
			hits++
		}
	}
	return hits
}

// PutAll fills a whole batch of computed values under one lock
// acquisition; empty keys and nil values (error slots, cache hits the
// caller blanked) are skipped. Respects the same entry cap as Do.
func (c *Cache) PutAll(keys []string, vals []any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	expires := c.now().Add(c.ttl)
	for i, k := range keys {
		if k != "" && vals[i] != nil {
			c.putLocked(k, vals[i], expires)
		}
	}
}

// Len reports how many entries the cache holds, expired ones not yet
// swept included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// putLocked stores one entry, sweeping first when the map is full:
// expired entries are dropped, and if everything is still live the
// whole map is reset (the cache is a performance aid, not a store).
func (c *Cache) putLocked(key string, val any, expires time.Time) {
	if len(c.entries) >= MaxCacheEntries {
		now := c.now()
		for k, e := range c.entries {
			if !now.Before(e.expires) {
				delete(c.entries, k)
			}
		}
		if len(c.entries) >= MaxCacheEntries {
			c.entries = make(map[string]cacheEntry)
		}
	}
	c.entries[key] = cacheEntry{value: val, expires: expires}
}
