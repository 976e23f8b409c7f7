// The merged ranking is one cache entry, not one per k: these tests hold
// the router to the single-node oracle's bytes for every k however the
// requests are ordered or interleaved, and pin when "cached" may be
// true — never on a partial, always for a k the live entry covers.
package router

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

// testClock is a clock the test advances by hand, read by handler
// goroutines.
type testClock struct{ unixNano atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.unixNano.Load()) }
func (c *testClock) advance(d time.Duration) { c.unixNano.Add(int64(d)) }

// oracleRankings fetches the single-node oracle's influencers bytes for
// each k once.
func oracleRankings(t *testing.T, oracle *httptest.Server, ks []int) map[int][]byte {
	t.Helper()
	want := make(map[int][]byte, len(ks))
	for _, k := range ks {
		if _, ok := want[k]; ok {
			continue
		}
		code, body := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", oracle.URL, k))
		if code != http.StatusOK {
			t.Fatalf("oracle k=%d: %d %s", k, code, body)
		}
		want[k] = rawField(t, body, "influencers")
	}
	return want
}

// fetch is getRaw for goroutines that must not call t.Fatal: a non-200
// is an error.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body, err
}

// TestOneRankingEntryServesEveryK: at ring sizes 1/2/3, a shuffled
// sequence of k — some above the 150-node universe — comes back with
// the oracle's influencers bytes for that k every time, "cached" is
// true exactly when k is at most the largest k asked inside the TTL
// window, the fan-out counter moves only on the others, and the cache
// holds the one entry. TTL expiry on the injected clock starts over.
func TestOneRankingEntryServesEveryK(t *testing.T) {
	oracle := newOracle(t)
	rng := rand.New(rand.NewSource(3))
	var ks []int
	for i := 0; i < 40; i++ {
		ks = append(ks, 1+rng.Intn(60))
	}
	// Above the universe the list is short and still covers what was
	// asked: 149, 150 and 170 are hits after 200, 201 is not.
	ks = append(ks, fixtureNodes+50, fixtureNodes-1, fixtureNodes, fixtureNodes+20, 3, fixtureNodes+51)
	afterExpiry := []int{9, 4, 10}
	want := oracleRankings(t, oracle, append(afterExpiry, ks...))
	for _, ringSize := range []int{1, 2, 3} {
		f := newFleet(t, ringSize, nil)
		clock := new(testClock)
		f.router.cache = httpkit.NewCache(time.Minute, clock.now)
		largest := 0
		ask := func(k int) {
			t.Helper()
			fanouts := f.router.metrics.fanouts.Value()
			code, body := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), k))
			if code != http.StatusOK {
				t.Fatalf("shards=%d k=%d: %d %s", ringSize, k, code, body)
			}
			if got := rawField(t, body, "influencers"); !bytes.Equal(got, want[k]) {
				t.Fatalf("shards=%d k=%d after a largest k of %d: influencers differ from the oracle's bytes\n got %s\nwant %s",
					ringSize, k, largest, got, want[k])
			}
			covered := k <= largest
			if got := decodeJSON(t, body); got["cached"] != covered || got["partial"] != nil {
				t.Fatalf("shards=%d k=%d after a largest k of %d: cached=%v partial=%v", ringSize, k, largest, got["cached"], got["partial"])
			}
			if ran := f.router.metrics.fanouts.Value() - fanouts; (covered && ran != 0) || (!covered && ran != 1) {
				t.Fatalf("shards=%d k=%d after a largest k of %d: %d fan-outs", ringSize, k, largest, ran)
			}
			largest = max(largest, k)
			if n := f.router.cache.Len(); n != 1 {
				t.Fatalf("shards=%d: after k=%d the router cache holds %d entries, want the one ranking", ringSize, k, n)
			}
		}
		for _, k := range ks {
			ask(k)
		}
		clock.advance(2 * time.Minute)
		largest = 0
		for _, k := range afterExpiry {
			ask(k)
		}
	}
}

// TestConcurrentMixedKLeaveTheLargestRanking: 8 goroutines asking mixed
// k at once (run under -race) each get the oracle's exact bytes for
// their k, and when they are done the entry is the ranking for the
// largest k anyone asked: that k is a hit, one more is a fan-out.
func TestConcurrentMixedKLeaveTheLargestRanking(t *testing.T) {
	oracle := newOracle(t)
	const goroutines, each = 8, 25
	asks := make([][]int, goroutines)
	var all []int
	largest := 0
	rng := rand.New(rand.NewSource(5))
	for g := range asks {
		for i := 0; i < each; i++ {
			k := 1 + rng.Intn(80)
			asks[g] = append(asks[g], k)
			all = append(all, k)
			largest = max(largest, k)
		}
	}
	want := oracleRankings(t, oracle, append(all, largest+1))
	f := newFleet(t, 3, nil)
	bodies := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range asks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range asks[g] {
				body, err := fetch(fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), k))
				if err != nil {
					t.Error(err)
					return
				}
				bodies[g] = append(bodies[g], body)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range asks {
		for i, k := range asks[g] {
			if got := rawField(t, bodies[g][i], "influencers"); !bytes.Equal(got, want[k]) {
				t.Fatalf("k=%d under concurrency: influencers differ from the oracle's bytes\n got %s\nwant %s", k, got, want[k])
			}
		}
	}
	fanouts := f.router.metrics.fanouts.Value()
	if fanouts > int64(len(all)) {
		t.Fatalf("%d fan-outs for %d requests", fanouts, len(all))
	}
	_, body := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), largest))
	if decodeJSON(t, body)["cached"] != true || f.router.metrics.fanouts.Value() != fanouts {
		t.Fatalf("the largest k asked (%d) is not served by the entry left behind: %s", largest, body)
	}
	_, body = getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), largest+1))
	if decodeJSON(t, body)["cached"] != false || !bytes.Equal(rawField(t, body, "influencers"), want[largest+1]) {
		t.Fatalf("k=%d is past the entry and must fan out: %s", largest+1, body)
	}
	if n := f.router.cache.Len(); n != 1 {
		t.Fatalf("router cache holds %d entries, want the one ranking", n)
	}
}

// TestPartialNeverBecomesOrEvictsTheRanking: with a shard down, a k
// past the cached complete ranking comes back partial and uncached
// every time, while every k the pre-outage entry covers keeps being
// served from it, complete.
func TestPartialNeverBecomesOrEvictsTheRanking(t *testing.T) {
	oracle := newOracle(t)
	want := oracleRankings(t, oracle, []int{20, 6})
	f := newFleet(t, 3, nil)
	getRaw(t, f.url()+"/v1/influencers?k=20")
	f.shards[1].Close()
	for i := 0; i < 2; i++ {
		_, body := getRaw(t, f.url()+"/v1/influencers?k=30")
		if got := decodeJSON(t, body); got["partial"] != true || got["cached"] != false {
			t.Fatalf("k=30 with a shard down, attempt %d: %s", i, body)
		}
		for _, k := range []int{20, 6} {
			_, body := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), k))
			if got := decodeJSON(t, body); got["cached"] != true || got["partial"] != nil || !bytes.Equal(rawField(t, body, "influencers"), want[k]) {
				t.Fatalf("k=%d after a partial k=30: the complete ranking cached before the outage is gone: %s", k, body)
			}
		}
	}
	if n := f.router.cache.Len(); n != 1 {
		t.Fatalf("router cache holds %d entries, want the one complete ranking", n)
	}
}

// TestPartialJoinerNeverClaimsCached: during an outage two concurrent
// requests share one fan-out — the leader's shard call is held open
// until the second request has joined its flight — and both bodies must
// say partial:true, cached:false. The joiner used to be told hit=true,
// which the handler copied into "cached": a partial ranking claiming to
// be cached, the pair chaos_test.go calls a violation.
func TestPartialJoinerNeverClaimsCached(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	f := buildFleet(t, 3, fleetSpec{wrap: func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/influencers" {
				entered <- struct{}{}
				<-release
			}
			h.ServeHTTP(w, r)
		})
	}})
	f.shards[1].Close()
	var arrived atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		f.router.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()

	bodies := make(chan []byte, 2)
	get := func() {
		body, err := fetch(front.URL + "/v1/influencers?k=5")
		if err != nil {
			t.Error(err)
		}
		bodies <- body
	}
	go get()
	<-entered // the leader's fan-out is parked inside shard 0
	go get()
	waitFor(t, "the second request to reach the router", 10*time.Second, func() bool { return arrived.Load() == 2 })
	time.Sleep(100 * time.Millisecond) // ... and to park on the leader's flight
	close(release)
	for i := 0; i < 2; i++ {
		body := <-bodies
		if got := decodeJSON(t, body); got["partial"] != true || got["cached"] != false {
			t.Fatalf("request %d of two sharing one partial fan-out: partial=%v cached=%v\n%s", i, got["partial"], got["cached"], body)
		}
	}
	if n := f.router.metrics.fanouts.Value(); n != 1 {
		t.Fatalf("%d fan-outs: the second request did not join the first one's flight, so nothing was tested", n)
	}
	if n := f.router.cache.Len(); n != 0 {
		t.Fatalf("the partial entered the cache: %d entries", n)
	}
}
