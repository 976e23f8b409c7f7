// Fleet tests: the router over N in-process shard daemons must be
// indistinguishable from one daemon holding the whole model — byte for
// byte on the merged rankings — and must degrade to explicit partials,
// never errors, when members of the fleet disappear.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/eval"
	"viralcast/internal/serve"
	"viralcast/internal/workload"
)

// The fixture trains one small system shared by every test (the same
// shape as internal/serve's); loaders fork it so fleet members never
// share mutable embeddings.
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

func fixtureLoader(t testing.TB) serve.Loader {
	sys, cs := fixture(t)
	thr := eval.TopFractionThreshold(cascade.Sizes(cs), 0.25)
	return func() (*serve.LoadedModel, error) {
		fork := sys.Fork()
		pred, err := fork.TrainPredictor(cs, 8*2.0/7.0, thr)
		if err != nil {
			return nil, err
		}
		return &serve.LoadedModel{Sys: fork, Pred: pred, Corpus: cs}, nil
	}
}

// fleet is a router plus its in-process shard daemons.
type fleet struct {
	router *Router
	ts     *httptest.Server // the router's own HTTP front
	shards []*httptest.Server
}

func (f *fleet) url() string { return f.ts.URL }

// fleetSpec customises a test fleet: shard adjusts shard i's daemon
// config, wrap interposes on shard i's handler (a stalling, refusing or
// garbling shard), router adjusts the router config after the shard
// list is filled in. Nil fields change nothing.
type fleetSpec struct {
	shard  func(i int, c *serve.Config)
	wrap   func(i int, h http.Handler) http.Handler
	router func(*Config)
}

// newFleet boots ringSize shard daemons (ShardID i, RingSize
// ringSize) and a router over them. tweak adjusts the router config.
func newFleet(t testing.TB, ringSize int, tweak func(*Config)) *fleet {
	t.Helper()
	return buildFleet(t, ringSize, fleetSpec{router: tweak})
}

func buildFleet(t testing.TB, ringSize int, spec fleetSpec) *fleet {
	t.Helper()
	shards := make([]*httptest.Server, ringSize)
	cfg := Config{Shards: make([]Shard, ringSize)}
	for i := 0; i < ringSize; i++ {
		scfg := serve.Config{
			Loader:   fixtureLoader(t),
			ShardID:  i,
			RingSize: ringSize,
		}
		if spec.shard != nil {
			spec.shard(i, &scfg)
		}
		srv, err := serve.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if spec.wrap != nil {
			h = spec.wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		shards[i] = ts
		cfg.Shards[i] = Shard{Primary: ts.URL}
	}
	if spec.router != nil {
		spec.router(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return &fleet{router: rt, ts: ts, shards: shards}
}

// newOracle boots one unsharded daemon over the same fixture.
func newOracle(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// rawField extracts one top-level field's exact bytes from a JSON
// body, for byte-identity comparisons between envelopes whose other
// fields legitimately differ.
func rawField(t *testing.T, body []byte, field string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body is not a JSON object: %v\n%s", err, body)
	}
	raw, ok := m[field]
	if !ok {
		t.Fatalf("body has no %q field:\n%s", field, body)
	}
	return raw
}

func decodeJSON(t *testing.T, body []byte) map[string]any {
	t.Helper()
	out := map[string]any{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	return out
}

func TestRingIsDeterministicAndCoversEveryShard(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		a, b := NewRing(size), NewRing(size)
		seen := make(map[int]int)
		for id := 0; id < 2000; id++ {
			oa, ob := a.Owner(id), b.Owner(id)
			if oa != ob {
				t.Fatalf("size %d: ring is not deterministic for cascade %d: %d vs %d", size, id, oa, ob)
			}
			if oa < 0 || oa >= size {
				t.Fatalf("size %d: owner %d out of range", size, oa)
			}
			seen[oa]++
		}
		if len(seen) != size {
			t.Fatalf("size %d: 2000 cascade ids covered only %d shards: %v", size, len(seen), seen)
		}
	}
}

// TestRoutedGlobalQueriesByteIdenticalToOracle is the property test
// the tentpole stands on: for any shard count, the router's merged
// influencer ranking and its relayed seed set are byte-identical to a
// single unsharded daemon over the same model.
func TestRoutedGlobalQueriesByteIdenticalToOracle(t *testing.T) {
	oracle := newOracle(t)
	for _, ringSize := range []int{1, 2, 3, 5} {
		f := newFleet(t, ringSize, nil)
		for _, k := range []int{1, 5, 40} {
			path := fmt.Sprintf("/v1/influencers?k=%d", k)
			codeR, bodyR := getRaw(t, f.url()+path)
			codeO, bodyO := getRaw(t, oracle.URL+path)
			if codeR != http.StatusOK || codeO != http.StatusOK {
				t.Fatalf("shards=%d k=%d: router %d, oracle %d\n%s", ringSize, k, codeR, codeO, bodyR)
			}
			gotInfs, wantInfs := rawField(t, bodyR, "influencers"), rawField(t, bodyO, "influencers")
			if !bytes.Equal(gotInfs, wantInfs) {
				t.Fatalf("shards=%d k=%d: routed influencers differ from the oracle's bytes\n got %s\nwant %s",
					ringSize, k, gotInfs, wantInfs)
			}
			if p := decodeJSON(t, bodyR)["partial"]; p != nil {
				t.Fatalf("shards=%d k=%d: healthy fleet answered partial", ringSize, k)
			}
		}
		codeR, bodyR := getRaw(t, f.url()+"/v1/seeds?k=4")
		codeO, bodyO := getRaw(t, oracle.URL+"/v1/seeds?k=4")
		if codeR != http.StatusOK || codeO != http.StatusOK {
			t.Fatalf("shards=%d seeds: router %d, oracle %d", ringSize, codeR, codeO)
		}
		if got, want := rawField(t, bodyR, "seeds"), rawField(t, bodyO, "seeds"); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: routed seeds differ from the oracle's bytes\n got %s\nwant %s", ringSize, got, want)
		}
	}
}

// TestPartialResultWhenShardDown: losing a shard degrades the merged
// ranking to an explicit partial — 200, "partial": true, the missing
// shard named, the surviving stripes still exact — and the partial is
// never cached, while a complete answer cached before the outage keeps
// serving.
func TestPartialResultWhenShardDown(t *testing.T) {
	const ringSize = 3
	f := newFleet(t, ringSize, nil)
	sys, _ := fixture(t)

	// Warm the cache with a complete k=5 answer.
	code, body := getRaw(t, f.url()+"/v1/influencers?k=5")
	if code != http.StatusOK || decodeJSON(t, body)["partial"] != nil {
		t.Fatalf("healthy fleet: code %d body %s", code, body)
	}

	f.shards[1].Close() // shard-1 goes away mid-flight

	// A fresh k dodges the router cache and must come back partial.
	code, body = getRaw(t, f.url()+"/v1/influencers?k=7")
	if code != http.StatusOK {
		t.Fatalf("partial answer: code %d body %s", code, body)
	}
	got := decodeJSON(t, body)
	if got["partial"] != true {
		t.Fatalf("missing shard did not mark the answer partial: %s", body)
	}
	if !reflect.DeepEqual(got["missing_shards"], []any{"shard-1"}) {
		t.Fatalf("missing_shards = %v, want [shard-1]", got["missing_shards"])
	}
	// The survivors' merge is still exact: stripes 0 and 2 of the model.
	ctx := context.Background()
	s0, err := sys.TopInfluencersRangeCtx(ctx, 7, 0, fixtureNodes/3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sys.TopInfluencersRangeCtx(ctx, 7, 2*fixtureNodes/3, fixtureNodes)
	if err != nil {
		t.Fatal(err)
	}
	var gotInfs []core.Influencer
	if err := json.Unmarshal(rawField(t, body, "influencers"), &gotInfs); err != nil {
		t.Fatal(err)
	}
	if want := core.MergeTopInfluencers(7, s0, s2); !reflect.DeepEqual(gotInfs, want) {
		t.Fatalf("partial merge is not the exact merge of the surviving stripes\n got %v\nwant %v", gotInfs, want)
	}
	// Partials are never cached: ask again, still a miss.
	_, again := getRaw(t, f.url()+"/v1/influencers?k=7")
	if decodeJSON(t, again)["cached"] != false {
		t.Fatalf("partial result was served from cache: %s", again)
	}
	// The pre-outage complete answer keeps serving from cache.
	_, warm := getRaw(t, f.url()+"/v1/influencers?k=5")
	wm := decodeJSON(t, warm)
	if wm["cached"] != true || wm["partial"] != nil {
		t.Fatalf("cached complete answer degraded: %s", warm)
	}
}

// TestEventsSplitAndRingAffinity: an ingest batch spanning many
// cascades splits across owners, every event lands, and predictions
// routed later come back from the owning shard — the shard_id field
// matches the ring for every cascade.
func TestEventsSplitAndRingAffinity(t *testing.T) {
	const ringSize = 3
	f := newFleet(t, ringSize, nil)
	ids := []int{100, 101, 102, 103, 104, 105, 106, 107}
	var events []map[string]any
	for _, id := range ids {
		for n := 0; n < 3; n++ {
			events = append(events, map[string]any{"cascade": id, "node": n, "time": 0.05 * float64(n+1)})
		}
	}
	code, body := postRaw(t, f.url()+"/v1/events", map[string]any{"events": events})
	if code != http.StatusOK {
		t.Fatalf("routed ingest: code %d body %s", code, body)
	}
	ack := decodeJSON(t, body)
	if ack["accepted"] != float64(len(events)) {
		t.Fatalf("accepted %v of %d events: %s", ack["accepted"], len(events), body)
	}
	if ack["partial"] != nil {
		t.Fatalf("healthy fleet ingest answered partial: %s", body)
	}
	for _, id := range ids {
		owner := f.router.Ring().Owner(id)
		code, body := getRaw(t, f.url()+fmt.Sprintf("/v1/cascades/%d/predict", id))
		if code != http.StatusOK {
			t.Fatalf("predict %d through router: code %d body %s", id, code, body)
		}
		if got := decodeJSON(t, body)["shard_id"]; got != float64(owner) {
			t.Fatalf("cascade %d answered by shard %v, ring owner is %d", id, got, owner)
		}
		// The partitioning is real: only the owner holds the cascade.
		for i, ts := range f.shards {
			code, _ := getRaw(t, ts.URL+fmt.Sprintf("/v1/cascades/%d", id))
			switch {
			case i == owner && code != http.StatusOK:
				t.Fatalf("owner shard %d does not hold cascade %d: %d", i, id, code)
			case i != owner && code != http.StatusNotFound:
				t.Fatalf("non-owner shard %d holds cascade %d (status %d)", i, id, code)
			}
		}
	}
}

// TestEventsPartialOnDeadShard: the sub-batch owned by a dead shard
// comes back rejected at the caller's original indices; everything
// else is accepted.
func TestEventsPartialOnDeadShard(t *testing.T) {
	const ringSize = 3
	f := newFleet(t, ringSize, nil)
	f.shards[2].Close()
	var events []map[string]any
	wantRejected := map[float64]bool{}
	accepted := 0
	for i, id := range []int{200, 201, 202, 203, 204, 205, 206, 207, 208, 209} {
		events = append(events, map[string]any{"cascade": id, "node": 1, "time": 0.1})
		if f.router.Ring().Owner(id) == 2 {
			wantRejected[float64(i)] = true
		} else {
			accepted++
		}
	}
	if len(wantRejected) == 0 {
		t.Fatal("fixture ids never hash to shard-2; pick different ids")
	}
	code, body := postRaw(t, f.url()+"/v1/events", map[string]any{"events": events})
	if code != http.StatusOK {
		t.Fatalf("partial ingest: code %d body %s", code, body)
	}
	ack := decodeJSON(t, body)
	if ack["partial"] != true || !reflect.DeepEqual(ack["missing_shards"], []any{"shard-2"}) {
		t.Fatalf("dead shard not reported: %s", body)
	}
	if ack["accepted"] != float64(accepted) {
		t.Fatalf("accepted %v, want %d", ack["accepted"], accepted)
	}
	rejects, _ := ack["rejected"].([]any)
	if len(rejects) != len(wantRejected) {
		t.Fatalf("%d rejects, want %d: %s", len(rejects), len(wantRejected), body)
	}
	for _, rej := range rejects {
		idx := rej.(map[string]any)["index"].(float64)
		if !wantRejected[idx] {
			t.Fatalf("unexpected rejected index %v (not owned by the dead shard): %s", idx, body)
		}
	}
}

// TestFollowerRetryServesReads: the router's one follower-read path. A
// shard whose primary is unreachable but whose follower is alive keeps
// serving idempotent reads through the jittered follower retry; a
// primary that is slow but answers is waited for, and its follower gets
// no request.
func TestFollowerRetryServesReads(t *testing.T) {
	t.Run("dead_primary", func(t *testing.T) {
		live := newOracle(t)
		rt, err := New(Config{Shards: []Shard{{Primary: deadURL(t), Follower: live.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		code, body := getRaw(t, ts.URL+"/v1/influencers?k=5")
		if code != http.StatusOK {
			t.Fatalf("follower retry: code %d body %s", code, body)
		}
		if decodeJSON(t, body)["partial"] != nil {
			t.Fatalf("follower-served answer marked partial: %s", body)
		}
		if got := rt.metrics.followerRetries.Value(); got < 1 {
			t.Fatalf("follower_retries = %d, want >= 1", got)
		}
	})

	t.Run("slow_primary", func(t *testing.T) {
		live := newOracle(t).Config.Handler
		const delay = 200 * time.Millisecond
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(delay):
				live.ServeHTTP(w, r)
			case <-r.Context().Done():
			}
		}))
		defer slow.Close()
		var followerReads atomic.Int64
		follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			followerReads.Add(1)
			live.ServeHTTP(w, r)
		}))
		defer follower.Close()
		rt, err := New(Config{Shards: []Shard{{Primary: slow.URL, Follower: follower.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		start := time.Now()
		code, body := getRaw(t, ts.URL+"/v1/rate?u=1&v=2")
		if code != http.StatusOK {
			t.Fatalf("read against a slow primary: code %d body %s", code, body)
		}
		if elapsed := time.Since(start); elapsed < delay {
			t.Fatalf("read answered in %v, before the primary's %v reply", elapsed, delay)
		}
		if n := followerReads.Load(); n != 0 {
			t.Fatalf("follower got %d requests while the primary was only slow", n)
		}
		if got := rt.metrics.followerRetries.Value(); got != 0 {
			t.Fatalf("follower_retries = %d, want 0", got)
		}
	})
}

// TestMisconfiguredShardDetected: a daemon claiming a different ring
// slot than the router placed it in is flagged, not merged.
func TestMisconfiguredShardDetected(t *testing.T) {
	wrong, err := serve.New(serve.Config{
		Loader: fixtureLoader(t), ShardID: 1, RingSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	wrongTS := httptest.NewServer(wrong.Handler())
	defer wrongTS.Close()
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.Shards[0] = Shard{Primary: wrongTS.URL} // slot 0 gets the shard configured as 1
	})
	code, body := getRaw(t, f.url()+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, body)
	}
	ready := decodeJSON(t, body)
	if ready["status"] != "degraded" {
		t.Fatalf("router did not degrade on a misconfigured member: %s", body)
	}
	shard0 := ready["shards"].(map[string]any)["shard-0"].(map[string]any)
	if shard0["misconfigured"] != true || shard0["healthy"] != false {
		t.Fatalf("shard-0 not flagged misconfigured: %v", shard0)
	}
}

// TestRouterReadyzHealthyFleet: a healthy fleet reports ready with
// every member verified against its slot.
func TestRouterReadyzHealthyFleet(t *testing.T) {
	f := newFleet(t, 2, nil)
	code, body := getRaw(t, f.url()+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, body)
	}
	ready := decodeJSON(t, body)
	if ready["status"] != "ready" || ready["shards_healthy"] != float64(2) {
		t.Fatalf("healthy fleet readyz: %s", body)
	}
	_, metrics := getRaw(t, f.url()+"/metrics")
	mm := decodeJSON(t, metrics)
	if mm["ring_size"] != float64(2) {
		t.Fatalf("router metrics ring_size = %v", mm["ring_size"])
	}
}

// TestSimulateThroughRouter: scenario runs relay to one shard and
// answer exactly what a single daemon would.
func TestSimulateThroughRouter(t *testing.T) {
	oracle := newOracle(t)
	f := newFleet(t, 3, nil)
	spec := map[string]any{
		"seed_sets": []map[string]any{{"nodes": []int{1, 2}}, {"nodes": []int{3, 4}}},
		"horizon":   1.0,
		"trials":    64,
		"seed":      7,
	}
	codeR, bodyR := postRaw(t, f.url()+"/v1/simulate", spec)
	codeO, bodyO := postRaw(t, oracle.URL+"/v1/simulate", spec)
	if codeR != http.StatusOK || codeO != http.StatusOK {
		t.Fatalf("simulate: router %d (%s), oracle %d (%s)", codeR, bodyR, codeO, bodyO)
	}
	for _, field := range []string{"sets", "win_rate"} {
		got, want := rawField(t, bodyR, field), rawField(t, bodyO, field)
		if !bytes.Equal(got, want) {
			t.Fatalf("simulate %q differs through the router\n got %s\nwant %s", field, got, want)
		}
	}
	// The relay keeps the shard's cache semantics: the identical spec
	// lands on the same shard and comes back from its cache.
	if decodeJSON(t, bodyR)["cached"] != false {
		t.Fatalf("first routed campaign claims cached: %s", bodyR)
	}
	if code, again := postRaw(t, f.url()+"/v1/simulate", spec); code != http.StatusOK || decodeJSON(t, again)["cached"] != true {
		t.Fatalf("repeated routed campaign = %d, not served from the shard's cache: %s", code, again)
	}
}

// deadURL returns a URL on a port that was just closed: connections
// are refused immediately, the cheapest simulation of a dead shard.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}
