package httpkit

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCacheBoundedUnderDistinctKeys is the regression test for the
// router's old merged-result cache, which stored every cacheable answer
// and never deleted one: GET /v1/influencers?k=1…N grew its entry map
// without bound. The shared cache sweeps at MaxCacheEntries, so the map
// stays under the cap however many distinct keys arrive.
func TestCacheBoundedUnderDistinctKeys(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache(time.Second, func() time.Time { return now })
	for i := 0; i < 3*MaxCacheEntries; i++ {
		key := fmt.Sprintf("influencers:k=%d", i)
		_, hit, err := c.Do(context.Background(), key, func() (any, bool, error) { return i, true, nil })
		if err != nil || hit {
			t.Fatalf("key %d: hit=%v err=%v, want a computed miss", i, hit, err)
		}
		now = now.Add(time.Millisecond)
		if n := len(c.entries); n > MaxCacheEntries {
			t.Fatalf("after %d distinct cacheable keys the cache holds %d entries, cap is %d", i+1, n, MaxCacheEntries)
		}
	}
}

// TestCacheUncacheableSharedNeverStored pins the partial-answer
// contract: a result its fill marks uncacheable reaches every waiter of
// the flight, and the next request computes afresh.
func TestCacheUncacheableSharedNeverStored(t *testing.T) {
	c := NewCache(time.Minute, time.Now)
	const waiters = 8
	release := make(chan struct{})
	calls := 0
	partial := func() (any, bool, error) {
		calls++ // only a flight's leader runs fill, and flights on one key never overlap
		<-release
		return "partial", false, nil
	}
	var ready, wg sync.WaitGroup
	vals := make([]any, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		ready.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			v, hit, err := c.Do(context.Background(), "ranking", partial)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Every goroutine is at Do's door; give them a moment to park on the
	// leader's flight, then let the one computation finish.
	ready.Wait()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	shared := 0
	for i := range vals {
		if vals[i] != "partial" {
			t.Fatalf("waiter %d got %v, want the flight's partial answer", i, vals[i])
		}
		if hits[i] {
			shared++
		}
	}
	if calls != 1 || shared != waiters-1 {
		t.Fatalf("fill ran %d times with %d shared deliveries, want 1 and %d", calls, shared, waiters-1)
	}
	if n := len(c.entries); n != 0 {
		t.Fatalf("uncacheable answer was stored: %d entries", n)
	}
	v, hit, _ := c.Do(context.Background(), "ranking", func() (any, bool, error) { return "complete", true, nil })
	if hit || v != "complete" {
		t.Fatalf("request after a partial = (%v, hit=%v), want a fresh computation", v, hit)
	}
	again := func() (any, bool, error) { return "recomputed", true, nil }
	if v, hit, _ := c.Do(context.Background(), "ranking", again); !hit || v != "complete" {
		t.Fatalf("complete answer not cached: (%v, hit=%v)", v, hit)
	}
}
