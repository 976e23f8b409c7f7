package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/httpkit"
	"viralcast/internal/xrand"
)

// TestChaosSoak drives mixed traffic through every resilience mechanism
// at once, under the race detector: tight admission limits force sheds,
// stalled seed selections force deadline 503s, the WAL fail-stops
// mid-run (ingestion goes read-only while predictions keep serving),
// and recovery goes through a loader that fails every other reload.
// The invariants checked are the overload contract itself: every
// response is one of the expected statuses, every 429 carries
// Retry-After, no request outlives its budget by more than scheduling
// slack, and the daemon ends the run healthy.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		workers        = 6
		iterations     = 30
		requestTimeout = 500 * time.Millisecond
		// Generous: the budget bounds the server-side work; the slack
		// absorbs race-detector overhead and client-side queueing.
		maxElapsed = requestTimeout + 4*time.Second
	)

	// A loader that fails every other call: reload-driven recovery has
	// to survive flaky model storage too.
	inner := fixtureLoader(t)
	var loads atomic.Uint64
	flaky := func() (*LoadedModel, error) {
		if n := loads.Add(1); n > 1 && n%2 == 0 {
			return nil, errors.New("injected: model store flaked")
		}
		return inner()
	}

	srv, ts, disk := newDiskServer(t, Config{
		Loader:         flaky,
		RequestTimeout: requestTimeout,
		WALDir:         t.TempDir(),
		Admission: AdmissionConfig{
			Compute: ClassLimit{MaxInflight: 2, MaxQueue: 2},
		},
	})
	tightenClass(srv, classIngest, ClassLimit{MaxInflight: 4, MaxQueue: 4})
	// A 50ms TTL: repeated questions keep reaching the compute paths,
	// and their stalls, instead of the cache.
	srv.cache = httpkit.NewCache(50*time.Millisecond, time.Now)

	// A seeded ~30% of seed selections stall until their budget runs
	// out; the others squeak through.
	var rngMu sync.Mutex
	rng := xrand.New(7)
	stallSeeds(srv, func() bool {
		rngMu.Lock()
		defer rngMu.Unlock()
		return rng.Float64() < 0.3
	})
	// The 8th fsync fails: the WAL fail-stops early in the soak, while
	// plenty of mixed traffic is still in flight. (Group commit batches
	// concurrent appends, so the fsync count runs well below the ingest
	// count — the hit number must stay comfortably under it.)
	disk.FailSync(8, errors.New("injected: disk pulled mid-soak"))

	client := &http.Client{Timeout: 10 * time.Second}
	var mu sync.Mutex
	var violations []string
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var statusCounts [6]atomic.Uint64 // indexed by status class (2 = 2xx, ...)

	do := func(method, path string, body string) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			violate("building %s %s: %v", method, path, err)
			return
		}
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			violate("%s %s: %v", method, path, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if elapsed > maxElapsed {
			violate("%s %s took %v (budget %v)", method, path, elapsed, requestTimeout)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusNotFound, http.StatusUnprocessableEntity,
			http.StatusInternalServerError, http.StatusServiceUnavailable:
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				violate("%s %s: 429 without Retry-After", method, path)
			}
		default:
			violate("%s %s: unexpected status %d", method, path, resp.StatusCode)
		}
		if c := resp.StatusCode / 100; c >= 0 && c < len(statusCounts) {
			statusCounts[c].Add(1)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cascade := 5000 + w
			for i := 0; i < iterations; i++ {
				switch i % 5 {
				case 0, 1:
					ev, _ := json.Marshal(map[string]any{
						"cascade": cascade, "node": (2*i + w) % fixtureNodes, "time": 0.01 * float64(i+1),
					})
					do("POST", "/v1/events", string(ev))
				case 2:
					do("GET", fmt.Sprintf("/v1/seeds?k=3&horizon=%d", 1+(w+i)%4), "")
				case 3:
					do("GET", fmt.Sprintf("/v1/cascades/%d/predict", cascade), "")
				case 4:
					do("GET", fmt.Sprintf("/v1/rate?u=%d&v=%d", w, (w+i)%fixtureNodes), "")
					do("GET", "/readyz", "")
				}
			}
		}(w)
	}

	// Meanwhile: wait for the injected disk failure to flip the daemon
	// into degraded read-only mode, prove predictions still serve, then
	// recover through the flaky loader. The waits are long: the workers
	// are slow on purpose (stalled selections, race detector).
	waitLong := func(what string, cond func() bool) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitLong("the WAL fail-stop to surface on /readyz", func() bool {
		_, body := getJSON(t, ts.URL+"/readyz")
		return body["degraded"] == true
	})
	if code, _ := getJSON(t, ts.URL+"/v1/rate?u=0&v=1"); code != http.StatusOK {
		t.Errorf("rate while degraded mid-soak: status %d", code)
	}
	waitLong("reload to recover through the flaky loader", func() bool {
		code, _ := postJSON(t, ts.URL+"/v1/reload", map[string]any{})
		if code != http.StatusOK {
			return false
		}
		_, body := getJSON(t, ts.URL+"/readyz")
		return body["degraded"] == false
	})

	wg.Wait()
	if len(violations) > 0 {
		max := len(violations)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d contract violations, first %d:\n%s",
			len(violations), max, strings.Join(violations[:max], "\n"))
	}

	// The run must have actually exercised the machinery and ended
	// healthy: successes happened, and the daemon is clean again.
	if statusCounts[2].Load() == 0 {
		t.Fatal("soak produced no successful responses")
	}
	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["degraded"] != false {
		t.Fatalf("post-soak readyz = %d %v", code, body)
	}
	var buf bytes.Buffer
	_, m := getJSON(t, ts.URL+"/metrics")
	json.NewEncoder(&buf).Encode(m) //nolint:errcheck
	if m["wal_recoveries"].(float64) < 1 {
		t.Fatalf("soak never recovered the WAL: %s", buf.String())
	}
	if m["readonly_rejects"].(float64)+m["deadline_exceeded"].(float64) == 0 {
		t.Logf("soak note: no degraded/deadline rejects observed (timing-dependent); metrics: %s", buf.String())
	}
}
