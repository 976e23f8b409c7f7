package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

// TestOneRankingEntryPerGeneration drives a bare daemon through
// Server.Handler() on a clock the test owns: whatever order k arrives
// in, every body is the reflective encoding of System.TopInfluencers(k)
// — the cached ranking's prefix is exact because the published order is
// strict and total — "cached" is true exactly when k is at most the
// largest k ranked in this TTL window, the scan runs only for the
// others, and the cache holds one ranking entry however many k were
// asked. A k above the universe covers every k below it with its short
// list; TTL expiry and a generation swap both miss.
func TestOneRankingEntryPerGeneration(t *testing.T) {
	srv, _ := newTestServer(t)
	now := time.Unix(1000, 0)
	srv.cache = httpkit.NewCache(time.Minute, func() time.Time { return now })
	h := srv.Handler()
	largest, entries := 0, 1
	ask := func(k int) {
		t.Helper()
		cur := srv.current()
		misses := srv.metrics.cacheMiss.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/influencers?k=%d", k), nil))
		cached := k <= largest
		want := canonical(t, &influencersResponse{Influencers: cur.sys.Sys.TopInfluencers(k), Cached: cached, Generation: cur.gen})
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("k=%d after a largest k of %d = %d\n%s\nwant\n%s", k, largest, rec.Code, rec.Body.Bytes(), want)
		}
		if ran := srv.metrics.cacheMiss.Value() - misses; (cached && ran != 0) || (!cached && ran != 1) {
			t.Fatalf("k=%d after a largest k of %d: the ranking was computed %d times", k, largest, ran)
		}
		largest = max(largest, k)
		if n := srv.cache.Len(); n != entries {
			t.Fatalf("after k=%d the cache holds %d entries, want %d", k, n, entries)
		}
	}
	ks := rand.New(rand.NewSource(20)).Perm(60)
	for _, k := range ks {
		ask(k + 1)
	}
	// Above the universe: the list is short, its coverage is what was asked.
	ask(fixtureNodes + 50)
	for _, k := range []int{fixtureNodes + 49, fixtureNodes, fixtureNodes - 1, 3} {
		ask(k)
	}
	ask(fixtureNodes + 51)

	// Expiry starts the window over, at exactly the k asked.
	now = now.Add(2 * time.Minute)
	largest = 0
	ask(9)
	ask(4)
	ask(10)

	// A generation swap keys a new entry: the old ranking answers nobody
	// (and lives out its TTL beside the new one).
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	largest, entries = 0, 2
	ask(4)
	ask(2)
}
