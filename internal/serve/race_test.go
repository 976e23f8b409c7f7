package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"viralcast/internal/cascade"
)

// TestServeConcurrentHammer drives every mutating and reading path at
// once — streaming ingestion, predictions, cached rankings, hot reloads,
// online flushes, and metrics scrapes — from parallel goroutines. Run
// with -race (scripts/ci.sh does) this is the proof that the sharded
// store, the TTL cache's singleflight, and the atomic model swap are
// data-race free, and that no request observes a torn model: every
// response must be a well-formed success for its endpoint.
func TestServeConcurrentHammer(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 1000, 3) // a cascade every worker can predict on

	const (
		workers = 6
		rounds  = 30
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	fail := func(format string, args ...any) { errs <- fmt.Sprintf(format, args...) }

	get := func(client *http.Client, url string, wantStatus int) {
		resp, err := client.Get(url)
		if err != nil {
			fail("GET %s: %v", url, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			fail("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
		}
	}
	post := func(client *http.Client, url, body string, wantStatus int) {
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			fail("POST %s: %v", url, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			fail("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < rounds; i++ {
				// Each worker grows its own cascade with nodes unique
				// within it (consecutive ids stay distinct mod the model's
				// universe), and everyone hammers the shared prediction —
				// and, batched beside it, the early-adopter memo of its
				// own cascade, refilled as every event lands.
				ev := fmt.Sprintf(`{"cascade": %d, "node": %d, "time": %g}`,
					2000+w, (w*rounds+i)%fixtureNodes, 0.01*float64(i+1))
				post(client, ts.URL+"/v1/events", ev, http.StatusOK)
				get(client, ts.URL+"/v1/cascades/1000/predict", http.StatusOK)
				post(client, ts.URL+"/v1/predict:batch", fmt.Sprintf(`{"cascades": [1000, %d]}`, 2000+w), http.StatusOK)
				switch i % 5 {
				case 0:
					post(client, ts.URL+"/v1/reload", "", http.StatusOK)
				case 1:
					post(client, ts.URL+"/v1/flush", "", http.StatusOK)
				case 2:
					get(client, ts.URL+"/v1/influencers?k=4", http.StatusOK)
				case 3:
					get(client, ts.URL+"/v1/rate?u=1&v=2", http.StatusOK)
				case 4:
					get(client, ts.URL+"/metrics", http.StatusOK)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	failures := 0
	for e := range errs {
		failures++
		if failures <= 10 {
			t.Error(e)
		}
	}
	if failures > 10 {
		t.Errorf("... and %d more failures", failures-10)
	}

	// Every worker's private cascade must have survived intact.
	for w := 0; w < workers; w++ {
		c, ok := srv.store.Snapshot(2000 + w)
		if !ok || c.Size() != rounds {
			t.Errorf("worker %d cascade: size %d, want %d", w, c.Size(), rounds)
			continue
		}
		if err := cascade.ValidateAll([]*cascade.Cascade{c}, fixtureNodes); err != nil {
			t.Errorf("worker %d cascade invalid: %v", w, err)
		}
	}
	if srv.Generation() < 2 {
		t.Errorf("generation %d after concurrent reloads/flushes, want >= 2", srv.Generation())
	}
}
