package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// simSpec is a small two-campaign scenario against the 150-node fixture.
const simSpec = `{
  "seed_sets": [
    {"name": "a", "nodes": [0, 1, 2]},
    {"name": "b", "nodes": [40, 41, 42]}
  ],
  "trials": 30,
  "horizon": 2,
  "seed": 1234
}`

func postSimulate(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestSimulateDeterministicAcrossGOMAXPROCS is the serving half of the
// determinism contract: the identical spec answered by two fresh
// daemons — one effectively serial, one parallel — must produce
// byte-identical JSON. (ci.sh runs this package under -race, which is
// what makes "parallel" an honest adversary.)
func TestSimulateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var bodies []string
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		srv, err := New(Config{Loader: fixtureLoader(t)})
		if err != nil {
			t.Fatal(err)
		}
		w := postSimulate(t, srv.Handler(), simSpec)
		if w.Code != http.StatusOK {
			t.Fatalf("GOMAXPROCS=%d: simulate = %d: %s", procs, w.Code, w.Body.String())
		}
		bodies = append(bodies, w.Body.String())
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("simulate JSON differs across GOMAXPROCS:\n1: %s\n8: %s", bodies[0], bodies[1])
	}
}

// TestSimulateResponseSchema pins the /v1/simulate body field by field:
// every name and JSON kind a client reads, nothing unknown beside them,
// and total_trials = trials x seed sets.
func TestSimulateResponseSchema(t *testing.T) {
	srv, _ := newTestServer(t)
	w := postSimulate(t, srv.Handler(), simSpec)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", w.Code, w.Body.String())
	}
	type dist struct {
		Mean, P50, P90, P99 *float64
		Min, Max            *int
	}
	var got struct {
		Trials      *int        `json:"trials"`
		Horizon     *float64    `json:"horizon"`
		Seed        *uint64     `json:"seed"`
		TotalTrials *int        `json:"total_trials"`
		Cached      *bool       `json:"cached"`
		Generation  *uint64     `json:"generation"`
		WinRate     [][]float64 `json:"win_rate"`
		Sets        []struct {
			Name       *string           `json:"name"`
			Seeds      []int             `json:"seeds"`
			Reach      *dist             `json:"reach"`
			Milestones []json.RawMessage `json:"milestones"`
			Topics     []json.RawMessage `json:"topics"`
		} `json:"sets"`
	}
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("simulate body does not fit the published schema: %v", err)
	}
	if got.Trials == nil || got.Horizon == nil || got.Seed == nil || got.TotalTrials == nil || got.Cached == nil || got.Generation == nil {
		t.Fatalf("a top-level field is missing: %+v", got)
	}
	if *got.Trials != 30 || *got.TotalTrials != 60 || *got.Seed != 1234 || *got.Horizon != 2 {
		t.Fatalf("spec not echoed: trials %d total %d seed %d horizon %v", *got.Trials, *got.TotalTrials, *got.Seed, *got.Horizon)
	}
	if len(got.Sets) != 2 || len(got.WinRate) != 2 || len(got.WinRate[0]) != 2 {
		t.Fatalf("%d sets, win_rate %v", len(got.Sets), got.WinRate)
	}
	for i, set := range got.Sets {
		r := set.Reach
		if set.Name == nil || len(set.Seeds) != 3 || r == nil || r.Mean == nil || r.P50 == nil || r.P90 == nil || r.P99 == nil || r.Min == nil || r.Max == nil {
			t.Fatalf("sets.%d lacks a field: %+v", i, set)
		}
	}
}

func TestSimulateCachesByGenerationAndSpec(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	first := postSimulate(t, h, simSpec)
	if first.Code != http.StatusOK {
		t.Fatalf("first simulate = %d: %s", first.Code, first.Body.String())
	}
	if strings.Contains(first.Body.String(), `"cached": true`) {
		t.Fatal("first request claims cached")
	}
	// A re-spelled but equivalent spec (reordered milestones would also
	// do) must be a cache hit with the identical payload modulo the
	// cached flag.
	second := postSimulate(t, h, simSpec)
	if second.Code != http.StatusOK {
		t.Fatalf("second simulate = %d", second.Code)
	}
	if !strings.Contains(second.Body.String(), `"cached": true`) {
		t.Fatalf("second identical request was not cached: %s", second.Body.String())
	}
	want := strings.Replace(first.Body.String(), `"cached": false`, `"cached": true`, 1)
	if second.Body.String() != want {
		t.Fatal("cached result differs from the computed one")
	}
	// A reload bumps the generation, which must invalidate the key.
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	third := postSimulate(t, h, simSpec)
	if third.Code != http.StatusOK || strings.Contains(third.Body.String(), `"cached": true`) {
		t.Fatalf("post-reload simulate = %d, cached body: %s", third.Code, third.Body.String())
	}
}

// TestSimulateDeadlineNeverCached drives a batch large enough that the
// tiny request budget fires between trials, at the daemon's cap of 4096
// trials: the response must be the machine-readable deadline 503, and
// the error must not poison the cache — a retry recomputes rather than
// replaying the failure.
func TestSimulateDeadlineNeverCached(t *testing.T) {
	srv, err := New(Config{
		Loader:         fixtureLoader(t),
		RequestTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	big := `{"seed_sets":[{"nodes":[0]},{"nodes":[1]}],"trials":2048,"horizon":4,"seed":9}`
	for attempt := 0; attempt < 2; attempt++ {
		w := postSimulate(t, h, big)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: simulate under 1ms budget = %d: %s", attempt, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), `"reason": "deadline"`) {
			t.Fatalf("attempt %d: 503 body lacks deadline reason: %s", attempt, w.Body.String())
		}
	}
	// Both attempts recomputed: a cached error would have surfaced as a
	// cache hit on the retry.
	if hits := srv.metrics.cacheHits.Value(); hits != 0 {
		t.Fatalf("deadline failure was served from cache (%d hits)", hits)
	}
	if srv.metrics.scenarioActive.Value() != 0 {
		t.Fatal("scenario_active gauge leaked after abandoned batches")
	}
}

// TestSimulateShedsUnderAdmissionPressure saturates the compute class
// and asserts the scenario endpoint sheds with 429 + Retry-After like
// its compute siblings.
func TestSimulateShedsUnderAdmissionPressure(t *testing.T) {
	srv, err := New(Config{
		Loader:    fixtureLoader(t),
		Admission: AdmissionConfig{Compute: ClassLimit{MaxInflight: 1, MaxQueue: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	release, err := srv.admission.limiters[classCompute].acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	w := postSimulate(t, srv.Handler(), simSpec)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("simulate with saturated compute class = %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(w.Body.String(), `"reason": "overload"`) {
		t.Fatalf("429 body lacks overload reason: %s", w.Body.String())
	}
}

func TestSimulateRejectsBadSpecs(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	cases := []struct {
		name, body string
		wantSub    string
	}{
		{"unknown field", `{"seed_sets":[{"nodes":[0]}],"horizon":1,"bogus":1}`, "bogus"},
		{"no horizon", `{"seed_sets":[{"nodes":[0]}]}`, "horizon"},
		{"seed out of range", `{"seed_sets":[{"nodes":[99999]}],"horizon":1}`, "out of range"},
		{"not json", `{{{`, "spec"},
		{"over trial cap", `{"seed_sets":[{"nodes":[0]},{"nodes":[1]}],"trials":3000,"horizon":1}`, "exceeds the daemon's limit 4096"},
	}
	for _, c := range cases {
		w := postSimulate(t, h, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, w.Code)
		}
		if !strings.Contains(w.Body.String(), c.wantSub) {
			t.Errorf("%s: body %q lacks %q", c.name, w.Body.String(), c.wantSub)
		}
	}
}

func TestSimulateMetricsSurface(t *testing.T) {
	srv, ts := newTestServer(t)
	if w := postSimulate(t, srv.Handler(), simSpec); w.Code != http.StatusOK {
		t.Fatalf("simulate = %d", w.Code)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if got := m["scenario_trials_total"].(float64); got != 60 {
		t.Fatalf("scenario_trials_total = %v, want 60", got)
	}
	if got := m["scenario_runs_total"].(float64); got != 1 {
		t.Fatalf("scenario_runs_total = %v, want 1", got)
	}
	if got := m["scenario_active"].(float64); got != 0 {
		t.Fatalf("scenario_active = %v, want 0", got)
	}
	if p50 := m["scenario_batch_latency_ms_p50"].(float64); p50 < 0 {
		t.Fatalf("p50 latency unset after a completed batch: %v", p50)
	}
	if p99 := m["scenario_batch_latency_ms_p99"].(float64); p99 < 0 {
		t.Fatalf("p99 latency unset after a completed batch: %v", p99)
	}
}
