package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

// The daemon's cache contract, held against the shared httpkit.Cache
// through its exported surface — the same calls the handlers make, on a
// clock the test owns. What needs the cache's internals (the
// uncacheable-flight contract, the entry map under more distinct keys
// than the cap) is tested beside it in internal/httpkit.

const maxCacheEntries = httpkit.MaxCacheEntries

// testCache is a cache on a clock the test advances by hand.
func testCache(ttl time.Duration, start time.Time) (*httpkit.Cache, *time.Time) {
	now := start
	return httpkit.NewCache(ttl, func() time.Time { return now }), &now
}

// cacheDo runs an always-cacheable fill, the only kind the daemon has.
func cacheDo(c *httpkit.Cache, key string, fn func() (any, error)) (any, bool, error) {
	return c.DoCover(context.Background(), key, 0, func() (any, bool, error) {
		v, err := fn()
		return v, true, err
	})
}

func TestCacheHitMissAndTTL(t *testing.T) {
	c, now := testCache(time.Minute, time.Unix(1000, 0))

	calls := 0
	fn := func() (any, error) { calls++; return calls, nil }

	v, hit, err := cacheDo(c, "k", fn)
	if err != nil || hit || v.(int) != 1 {
		t.Fatalf("first DoCover = (%v, hit=%v, %v), want miss computing 1", v, hit, err)
	}
	v, hit, _ = cacheDo(c, "k", fn)
	if !hit || v.(int) != 1 {
		t.Fatalf("second DoCover = (%v, hit=%v), want cached 1", v, hit)
	}
	// Past the TTL the value is recomputed.
	*now = now.Add(time.Minute + time.Second)
	v, hit, _ = cacheDo(c, "k", fn)
	if hit || v.(int) != 2 {
		t.Fatalf("post-TTL DoCover = (%v, hit=%v), want fresh 2", v, hit)
	}
	// Distinct keys don't share entries.
	if v, _, _ := cacheDo(c, "other", fn); v.(int) != 3 {
		t.Fatalf("distinct key served %v", v)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := httpkit.NewCache(time.Minute, time.Now)
	calls := 0
	_, _, err := cacheDo(c, "k", func() (any, error) { calls++; return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("error swallowed")
	}
	v, hit, err := cacheDo(c, "k", func() (any, error) { calls++; return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after error DoCover = (%v, hit=%v, %v); errors must not be cached", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

// TestCacheSingleflight proves that concurrent misses on one key share a
// single computation instead of stampeding.
func TestCacheSingleflight(t *testing.T) {
	c := httpkit.NewCache(time.Minute, time.Now)
	var running atomic.Int32
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		running.Add(1)
		<-release
		running.Add(-1)
		return "shared", nil
	}
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := cacheDo(c, "hot", fn)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach DoCover, then release the one computation.
	for running.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent waiters, want 1", got, waiters)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
}

// live reports whether key is served from cache right now. On a miss the
// probe's fill fails, and errors are never cached, so it leaves no trace.
func live(c *httpkit.Cache, key string) bool {
	_, hit, _ := c.DoCover(context.Background(), key, 0, func() (any, bool, error) {
		return nil, false, errors.New("probe")
	})
	return hit
}

// TestCacheSweepAtBoundary pins the maxCacheEntries boundary behavior:
// the insert that finds the map full triggers a sweep, expired entries
// are evicted, and live entries survive it.
func TestCacheSweepAtBoundary(t *testing.T) {
	c, now := testCache(time.Minute, time.Unix(1000, 0))
	// Fill to exactly the boundary in two halves 40s apart, so that 30s
	// later the first half has expired and the second is still live.
	const expired = maxCacheEntries / 2
	for i := 0; i < maxCacheEntries; i++ {
		if i == expired {
			*now = now.Add(40 * time.Second)
		}
		cacheDo(c, fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
	}
	if n := c.Len(); n != maxCacheEntries {
		t.Fatalf("setup: %d entries, want exactly %d", n, maxCacheEntries)
	}
	*now = now.Add(30 * time.Second)
	// The next insert sees Len == maxCacheEntries and must sweep.
	cacheDo(c, "overflow", func() (any, error) { return "v", nil })
	if n := c.Len(); n != maxCacheEntries-expired+1 {
		t.Fatalf("after sweep: %d entries, want %d live + 1 new", n, maxCacheEntries-expired)
	}
	for i := 0; i < expired; i++ {
		if live(c, fmt.Sprintf("k%d", i)) {
			t.Fatalf("expired entry k%d survived the sweep", i)
		}
	}
	for i := expired; i < maxCacheEntries; i++ {
		if !live(c, fmt.Sprintf("k%d", i)) {
			t.Fatalf("live entry k%d was evicted by the sweep", i)
		}
	}
	if !live(c, "overflow") {
		t.Fatal("the triggering insert was not cached")
	}
}

// TestCacheSweepResetWhenAllLive pins the last-resort path: when every
// entry is still live at the boundary, the sweep resets the whole map
// rather than letting it grow without bound.
func TestCacheSweepResetWhenAllLive(t *testing.T) {
	c, _ := testCache(time.Hour, time.Unix(2000, 0))
	for i := 0; i < maxCacheEntries; i++ {
		cacheDo(c, fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
	}
	cacheDo(c, "overflow", func() (any, error) { return "v", nil })
	if n := c.Len(); n != 1 {
		t.Fatalf("all-live sweep kept %d entries, want just the new one", n)
	}
	if !live(c, "overflow") {
		t.Fatal("the triggering insert missing after the reset")
	}
}

func TestCacheSweepBoundsGrowth(t *testing.T) {
	c, now := testCache(time.Millisecond, time.Unix(1000, 0))
	for i := 0; i < maxCacheEntries+10; i++ {
		cacheDo(c, fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
		*now = now.Add(time.Millisecond) // everything before is expired
	}
	if n := c.Len(); n > maxCacheEntries {
		t.Fatalf("cache grew to %d entries, cap is %d", n, maxCacheEntries)
	}
}
