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
		_, hit, err := c.DoCover(context.Background(), key, 0, func() (any, bool, error) { return i, true, nil })
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
// the flight, none of them is told it came from cache (the router
// copies hit into "cached", and a partial must never claim that), and
// the next request computes afresh.
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
			v, hit, err := c.DoCover(context.Background(), "ranking", 0, partial)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Every goroutine is at DoCover's door; give them a moment to park on the
	// leader's flight, then let the one computation finish.
	ready.Wait()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := range vals {
		if vals[i] != "partial" {
			t.Fatalf("waiter %d got %v, want the flight's partial answer", i, vals[i])
		}
		if hits[i] {
			t.Fatalf("waiter %d of an uncacheable flight was told hit=true", i)
		}
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times for %d concurrent waiters, want 1", calls, waiters)
	}
	if n := len(c.entries); n != 0 {
		t.Fatalf("uncacheable answer was stored: %d entries", n)
	}
	v, hit, _ := c.DoCover(context.Background(), "ranking", 0, func() (any, bool, error) { return "complete", true, nil })
	if hit || v != "complete" {
		t.Fatalf("request after a partial = (%v, hit=%v), want a fresh computation", v, hit)
	}
	again := func() (any, bool, error) { return "recomputed", true, nil }
	if v, hit, _ := c.DoCover(context.Background(), "ranking", 0, again); !hit || v != "complete" {
		t.Fatalf("complete answer not cached: (%v, hit=%v)", v, hit)
	}
}

// TestCacheSweepsExpiredOncePerTTL: below MaxCacheEntries nothing used
// to sweep, so a value stayed resident until its own key was asked
// again. The first put of a TTL window now drops everything expired.
func TestCacheSweepsExpiredOncePerTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache(time.Second, func() time.Time { return now })
	for i := 0; i < 100; i++ {
		c.DoCover(context.Background(), fmt.Sprintf("seeds:k=%d:h=1", i), 0, func() (any, bool, error) { return i, true, nil }) //nolint:errcheck // fill cannot fail
	}
	if n := c.Len(); n != 100 {
		t.Fatalf("setup: %d entries, want 100", n)
	}
	now = now.Add(2 * time.Second)
	c.DoCover(context.Background(), "fresh", 0, ranking(1)) //nolint:errcheck // fill cannot fail
	if n := c.Len(); n != 1 {
		t.Fatalf("one put two TTLs later left %d entries, want only the new one", n)
	}
}

// ranking stands in for a top-k list: DoCover only ever sees it whole.
func ranking(k int) func() (any, bool, error) {
	return func() (any, bool, error) { return k, true, nil }
}

// TestCacheDoCoverSequential: one entry serves every need up to what it
// was filled for, a larger need refills for exactly that need and
// replaces it, and expiry starts over.
func TestCacheDoCoverSequential(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache(time.Minute, func() time.Time { return now })
	ctx := context.Background()
	largest := 0
	for _, need := range []int{40, 7, 40, 41, 1, 300, 299, 300, 12} {
		v, hit, err := c.DoCover(ctx, "influencers", need, ranking(need))
		if err != nil {
			t.Fatal(err)
		}
		if wantHit := need <= largest; hit != wantHit {
			t.Fatalf("need %d after a largest fill of %d: hit=%v", need, largest, hit)
		}
		largest = max(largest, need)
		if v != largest {
			t.Fatalf("need %d served the ranking filled for %v, want %d", need, v, largest)
		}
		if n := c.Len(); n != 1 {
			t.Fatalf("one ranking key holds %d entries", n)
		}
	}
	now = now.Add(2 * time.Minute)
	if v, hit, _ := c.DoCover(ctx, "influencers", 5, ranking(5)); hit || v != 5 {
		t.Fatalf("post-TTL need 5 = (%v, hit=%v), want a fresh fill for exactly 5", v, hit)
	}
	// need 0 (a value that is not a ranking): any live entry covers it.
	if v, hit, _ := c.DoCover(ctx, "influencers", 0, ranking(0)); !hit || v != 5 {
		t.Fatalf("need 0 on a live ranking = (%v, hit=%v), want the entry", v, hit)
	}
}

// TestCacheDoCoverFlights holds fills open to pin the singleflight half:
// a request joins a flight that covers it and leads its own when the
// flight in progress is shorter than it needs (so it is never handed
// fewer ranks than it asked for), there is at most one flight per
// distinct need, and of two concurrent misses the longer answer is the
// entry whichever lands last.
func TestCacheDoCoverFlights(t *testing.T) {
	for _, longerLandsFirst := range []bool{true, false} {
		c := NewCache(time.Minute, time.Now)
		var mu sync.Mutex
		fills := map[int]int{}
		started := make(chan int, 16)
		release := map[int]chan struct{}{100: make(chan struct{}), 400: make(chan struct{})}
		type answer struct {
			need int
			val  any
			hit  bool
		}
		answers := make(chan answer, 16)
		ask := func(need int) {
			go func() {
				v, hit, err := c.DoCover(context.Background(), "influencers", need, func() (any, bool, error) {
					mu.Lock()
					fills[need]++
					mu.Unlock()
					started <- need
					<-release[need]
					return need, true, nil
				})
				if err != nil {
					t.Error(err)
				}
				answers <- answer{need, v, hit}
			}()
		}
		ask(100)
		<-started
		ask(400) // the flight in progress is shorter: a second, concurrent miss
		<-started
		// Three joiners: another 400 and a 250 can only share the 400
		// flight, a 60 whichever it finds first.
		ask(400)
		ask(250)
		ask(60)
		// Give them a moment to park; every assertion below holds
		// whether they joined a flight or arrived after it landed.
		time.Sleep(30 * time.Millisecond)
		first, second := 100, 400
		if longerLandsFirst {
			first, second = 400, 100
		}
		close(release[first])
		got := []answer{<-answers} // any answer of the first landing: it has stored by now
		close(release[second])
		for len(got) < 5 {
			got = append(got, <-answers)
		}
		misses := 0
		for _, a := range got {
			if a.val.(int) < a.need {
				t.Fatalf("longerLandsFirst=%v: need %d was handed the ranking filled for %v", longerLandsFirst, a.need, a.val)
			}
			if !a.hit {
				misses++
			}
		}
		if misses != 2 {
			t.Fatalf("longerLandsFirst=%v: %d of 5 askers report a miss, want the two leaders: %+v", longerLandsFirst, misses, got)
		}
		mu.Lock()
		if fills[100] != 1 || fills[400] != 1 || len(fills) != 2 {
			t.Fatalf("longerLandsFirst=%v: fills per need = %v, want one for 100 and one for 400", longerLandsFirst, fills)
		}
		mu.Unlock()
		v, hit, _ := c.DoCover(context.Background(), "influencers", 400, ranking(-1))
		if !hit || v != 400 {
			t.Fatalf("longerLandsFirst=%v: entry after both landed = (%v, hit=%v), want the 400 ranking", longerLandsFirst, v, hit)
		}
	}
}

// TestCacheDoCoverNeverHandsOutLess checks every delivery of the flights
// above from the asker's side, under -race: 8 goroutines, mixed needs,
// each answer filled for at least what was asked, and the entry left at
// the largest need.
func TestCacheDoCoverNeverHandsOutLess(t *testing.T) {
	c := NewCache(time.Minute, time.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				need := 1 + (g*131+i*37)%500
				v, _, err := c.DoCover(context.Background(), "influencers", need, ranking(need))
				if err != nil || v.(int) < need {
					t.Errorf("need %d was handed the ranking filled for %v (%v)", need, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	largest := 0
	for g := 0; g < 8; g++ {
		for i := 0; i < 200; i++ {
			largest = max(largest, 1+(g*131+i*37)%500)
		}
	}
	if v, hit, _ := c.DoCover(context.Background(), "influencers", 1, ranking(-1)); !hit || v != largest {
		t.Fatalf("entry after the storm = (%v, hit=%v), want the ranking for the largest need %d", v, hit, largest)
	}
}
