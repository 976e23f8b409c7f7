package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/workload"
)

// The fixture trains one small system shared by every test; loaders fork
// it so generations never share mutable embeddings.
var (
	fixtureOnce sync.Once
	fixtureSys  *core.System
	fixtureCS   []*cascade.Cascade
	fixtureErr  error
)

const fixtureNodes = 150

func fixture(t testing.TB) (*core.System, []*cascade.Cascade) {
	t.Helper()
	fixtureOnce.Do(func() {
		c := workload.Default()
		c.N = fixtureNodes
		c.Cascades = 300
		c.Window = 8
		c.Seed = 11
		d, err := workload.Build(c)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureCS = d.Cascades
		fixtureSys, fixtureErr = core.Train(fixtureCS, fixtureNodes, core.TrainConfig{
			Topics: 2, MaxIter: 6, Workers: 2, Seed: 11,
		})
	})
	if fixtureErr != nil {
		t.Fatalf("building fixture: %v", fixtureErr)
	}
	return fixtureSys, fixtureCS
}

// fixtureLoader forks the shared fixture system and trains a predictor
// against the fork, mirroring what FileLoader does from disk.
func fixtureLoader(t testing.TB) Loader {
	sys, cs := fixture(t)
	thr := eval.TopFractionThreshold(cascade.Sizes(cs), 0.25)
	return func() (*LoadedModel, error) {
		fork := sys.Fork()
		pred, err := fork.TrainPredictor(cs, 8*2.0/7.0, thr)
		if err != nil {
			return nil, err
		}
		return &LoadedModel{Sys: fork, Pred: pred, Corpus: cs}, nil
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return decodeResp(t, resp)
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decodeResp(t, resp)
}

func decodeResp(t *testing.T, resp *http.Response) (int, map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("response %d is not JSON: %q", resp.StatusCode, data)
	}
	return resp.StatusCode, out
}

// ingestEvents posts a batch of synthetic early infections for cascade
// id using distinct low node ids and times well inside the early cutoff.
func ingestEvents(t *testing.T, baseURL string, id, count int) {
	t.Helper()
	evs := make([]Event, count)
	for i := range evs {
		evs[i] = Event{Cascade: id, Node: i, Time: 0.05 * float64(i+1)}
	}
	status, body := postJSON(t, baseURL+"/v1/events", map[string]any{"events": evs})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/events = %d, body %v", status, body)
	}
	if got := int(body["accepted"].(float64)); got != count {
		t.Fatalf("accepted %d of %d events: %v", got, count, body)
	}
}

func TestServeLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	status, body := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("/readyz = %d %v", status, body)
	}
	if body["predictor"] != true {
		t.Fatalf("/readyz reports no predictor: %v", body)
	}
	if status, _ := getJSON(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz = %d", status)
	}

	ingestEvents(t, ts.URL, 42, 5)

	status, body = getJSON(t, ts.URL+"/v1/cascades/42/predict")
	if status != http.StatusOK {
		t.Fatalf("/predict = %d %v", status, body)
	}
	for _, k := range []string{"viral", "margin", "size", "generation"} {
		if _, ok := body[k]; !ok {
			t.Fatalf("predict response missing %q: %v", k, body)
		}
	}
	if body["size"].(float64) != 5 {
		t.Fatalf("predict sees size %v, want 5", body["size"])
	}

	if status, _ := getJSON(t, ts.URL+"/v1/cascades/999/predict"); status != http.StatusNotFound {
		t.Fatalf("predict for unknown cascade = %d, want 404", status)
	}

	status, body = getJSON(t, ts.URL+"/v1/cascades/42")
	if status != http.StatusOK || body["size"].(float64) != 5 {
		t.Fatalf("/v1/cascades/42 = %d %v", status, body)
	}

	status, body = getJSON(t, ts.URL+"/v1/rate?u=0&v=1")
	if status != http.StatusOK {
		t.Fatalf("/v1/rate = %d %v", status, body)
	}
	if _, ok := body["rate"].(float64); !ok {
		t.Fatalf("rate response missing rate: %v", body)
	}
	if status, _ := getJSON(t, ts.URL+fmt.Sprintf("/v1/rate?u=0&v=%d", fixtureNodes)); status != http.StatusBadRequest {
		t.Fatalf("out-of-range rate = %d, want 400", status)
	}
}

func TestServeCachedEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	status, body := getJSON(t, ts.URL+"/v1/influencers?k=5")
	if status != http.StatusOK || body["cached"] != false {
		t.Fatalf("first influencers = %d cached=%v", status, body["cached"])
	}
	if n := len(body["influencers"].([]any)); n != 5 {
		t.Fatalf("got %d influencers, want 5", n)
	}
	status, body = getJSON(t, ts.URL+"/v1/influencers?k=5")
	if status != http.StatusOK || body["cached"] != true {
		t.Fatalf("second influencers = %d cached=%v, want cache hit", status, body["cached"])
	}

	status, body = getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=2")
	if status != http.StatusOK {
		t.Fatalf("/v1/seeds = %d %v", status, body)
	}
	if n := len(body["seeds"].([]any)); n != 3 {
		t.Fatalf("got %d seeds, want 3", n)
	}
	status, body = getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=2")
	if status != http.StatusOK || body["cached"] != true {
		t.Fatalf("second seeds = %d cached=%v, want cache hit", status, body["cached"])
	}
}

func TestServeEventValidation(t *testing.T) {
	_, ts := newTestServer(t)

	// A batch mixing good and bad events: the good ones land, the bad
	// ones are reported individually.
	status, body := postJSON(t, ts.URL+"/v1/events", map[string]any{"events": []Event{
		{Cascade: 7, Node: 1, Time: 0.1},
		{Cascade: 7, Node: 1, Time: 0.2},                // duplicate node
		{Cascade: 7, Node: fixtureNodes + 5, Time: 0.3}, // out of universe
		{Cascade: 7, Node: 2, Time: -1},                 // negative time
		{Cascade: 7, Node: 3, Time: 0.4},
	}})
	if status != http.StatusOK {
		t.Fatalf("mixed batch = %d %v", status, body)
	}
	if got := int(body["accepted"].(float64)); got != 2 {
		t.Fatalf("accepted %d, want 2: %v", got, body)
	}
	if got := len(body["rejected"].([]any)); got != 3 {
		t.Fatalf("rejected %d, want 3: %v", got, body)
	}

	// A single bare event object is also accepted.
	status, body = postJSON(t, ts.URL+"/v1/events", Event{Cascade: 8, Node: 0, Time: 0.1})
	if status != http.StatusOK || int(body["accepted"].(float64)) != 1 {
		t.Fatalf("single event = %d %v", status, body)
	}

	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
}

func TestServeReloadMidTraffic(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 1, 4)

	startGen := srv.Generation()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/cascades/1/predict")
				if err != nil {
					errs <- fmt.Sprintf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: predict returned %d mid-reload", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		status, body := postJSON(t, ts.URL+"/v1/reload", nil)
		if status != http.StatusOK {
			t.Errorf("reload %d = %d %v", r, status, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := srv.Generation(); got != startGen+3 {
		t.Fatalf("generation %d after 3 reloads from %d", got, startGen)
	}
}

func TestServeFlushRefinesModel(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 5, 6)
	ingestEvents(t, ts.URL, 6, 3)
	// A singleton cascade must not be flushed: no likelihood signal.
	ingestEvents(t, ts.URL, 9, 1)

	genBefore := srv.Generation()
	status, body := postJSON(t, ts.URL+"/v1/flush", nil)
	if status != http.StatusOK {
		t.Fatalf("/v1/flush = %d %v", status, body)
	}
	if got := int(body["flushed"].(float64)); got != 2 {
		t.Fatalf("flushed %d cascades, want 2: %v", got, body)
	}
	if srv.Generation() != genBefore+1 {
		t.Fatalf("flush did not bump generation: %d -> %d", genBefore, srv.Generation())
	}

	// Nothing grew since: the next flush is a no-op and keeps the
	// generation stable.
	status, body = postJSON(t, ts.URL+"/v1/flush", nil)
	if status != http.StatusOK || int(body["flushed"].(float64)) != 0 {
		t.Fatalf("idle flush = %d %v, want flushed=0", status, body)
	}
	if srv.Generation() != genBefore+1 {
		t.Fatalf("idle flush bumped generation to %d", srv.Generation())
	}

	// The refined model still predicts.
	if status, body := getJSON(t, ts.URL+"/v1/cascades/5/predict"); status != http.StatusOK {
		t.Fatalf("predict after flush = %d %v", status, body)
	}
}

func TestServeMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 2, 3)
	if status, _ := getJSON(t, ts.URL+"/v1/cascades/2/predict"); status != http.StatusOK {
		t.Fatal("predict failed")
	}
	getJSON(t, ts.URL+"/v1/influencers?k=3")
	getJSON(t, ts.URL+"/v1/influencers?k=3")

	status, body := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	reqs, ok := body["requests"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing requests map: %v", body)
	}
	for _, endpoint := range []string{"events", "predict", "influencers"} {
		if v, ok := reqs[endpoint].(float64); !ok || v < 1 {
			t.Errorf("requests[%s] = %v, want >= 1", endpoint, reqs[endpoint])
		}
	}
	if v := body["events_ingested"].(float64); v != 3 {
		t.Errorf("events_ingested = %v, want 3", v)
	}
	if v := body["live_cascades"].(float64); v != 1 {
		t.Errorf("live_cascades = %v, want 1", v)
	}
	if v := body["cache_hits"].(float64); v < 1 {
		t.Errorf("cache_hits = %v, want >= 1 after repeated influencers", v)
	}
	if v := body["model_generation"].(float64); v < 1 {
		t.Errorf("model_generation = %v, want >= 1", v)
	}
	if _, ok := body["latency_ms"].(map[string]any); !ok {
		t.Errorf("metrics missing latency histogram: %v", body)
	}
}

func TestServeGracefulDrain(t *testing.T) {
	srv, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	base := "http://" + addr.String()
	if status, _ := getJSON(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("daemon not healthy")
	}
	ingestEvents(t, base, 3, 2)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not drain within 15s")
	}
}
