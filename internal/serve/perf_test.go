// Request-path performance coverage: the pprof control-plane gate, and
// ReportAllocs benchmarks for the pooled response encoding and the
// predict hot path (bench/ times the same handlers as serve.*_handler_us).
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof answered %d without EnablePprof", resp.StatusCode)
	}
}

func TestPprofEnabledServesProfiles(t *testing.T) {
	srv, err := New(Config{
		Loader:      fixtureLoader(t),
		EnablePprof: true,
		// A tiny compute budget plus zero admission slots would break
		// the data plane; pprof must be exempt from both.
		Admission:      AdmissionConfig{Compute: ClassLimit{MaxInflight: 1, MaxQueue: -1}},
		RequestTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d with EnablePprof, want 200", path, resp.StatusCode)
		}
	}
}

// BenchmarkPredictRequest runs the full handler chain for the paper's
// core online question — the hottest data-plane path — with allocation
// reporting, so the sync.Pool workspaces in the feature-extraction and
// response-encoding layers stay verifiably effective.
func BenchmarkPredictRequest(b *testing.B) {
	srv, err := New(Config{Loader: benchLoader(b)})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	// Ingest one live cascade to predict against.
	const id = 901
	var events []Event
	for i := 0; i < 8; i++ {
		events = append(events, Event{Cascade: id, Node: i, Time: 0.05 * float64(i+1)})
	}
	for _, ev := range events {
		if _, err := srv.store.Append(ev, fixtureNodes); err != nil {
			b.Fatal(err)
		}
	}
	req := httptest.NewRequest("GET", "/v1/cascades/"+strconv.Itoa(id)+"/predict", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("predict = %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatal(w.Code)
		}
	}
}

// BenchmarkInfluencersRequest is the cached compute endpoint end to
// end; with a warm cache this is the pure request-path overhead, the
// regime a TTL window's worth of traffic actually experiences.
func BenchmarkInfluencersRequest(b *testing.B) {
	srv, err := New(Config{Loader: benchLoader(b)})
	if err != nil {
		b.Fatal(err)
	}
	srv.cache = httpkit.NewCache(time.Hour, time.Now) // no expiry mid-benchmark
	h := srv.Handler()
	req := httptest.NewRequest("GET", "/v1/influencers?k=10", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("influencers = %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatal(w.Code)
		}
	}
}

// BenchmarkSimulate measures an uncached POST /v1/simulate end to end:
// spec parse, normalization, the Monte Carlo batch on all cores, the
// aggregation, and the response encoding. The seed varies per iteration
// so every request misses the cache — this is the cost a *new* what-if
// question pays, the number EXPERIMENTS.md's trials-vs-latency table is
// anchored on.
func BenchmarkSimulate(b *testing.B) {
	srv, err := New(Config{Loader: benchLoader(b)})
	if err != nil {
		b.Fatal(err)
	}
	srv.cache = httpkit.NewCache(time.Hour, time.Now) // no expiry mid-benchmark
	h := srv.Handler()
	const spec = `{"seed_sets":[{"name":"a","nodes":[0,1,2]},{"name":"b","nodes":[40,41,42]}],"trials":32,"horizon":2,"seed":%d}`
	warm := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(fmt.Sprintf(spec, 0)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, warm)
	if w.Code != http.StatusOK {
		b.Fatalf("simulate = %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(fmt.Sprintf(spec, i+1)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatal(w.Code)
		}
	}
}

// BenchmarkPredictBatch is the batched data plane end to end at batch
// sizes 1/16/64/256 (features:batch and rate:batch at 256 beside
// them), reporting amortized ns/cascade next to ns/op, in two regimes.
// cold bumps the model generation (outside the timer) before every
// operation, so every item misses the early-adopter memo and the
// numbers measure the column-wise extraction and blocked kernels; warm
// reads every item's features from the memo and measures what a live
// cascade past its early window costs. Compare cold ns/cascade at B256
// against BenchmarkPredictRequest's ns/op: that ratio is the
// amortization the batch plane buys.
func BenchmarkPredictBatch(b *testing.B) {
	srv, err := New(Config{Loader: benchLoader(b)})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	const maxBatch = 256
	ids := make([]int, maxBatch)
	for i := range ids {
		ids[i] = 7000 + i
		for j := 0; j < 8; j++ {
			ev := Event{Cascade: ids[i], Node: (i + j) % 32, Time: 0.05 * float64(j+1)}
			if _, err := srv.store.Append(ev, fixtureNodes); err != nil {
				b.Fatal(err)
			}
		}
	}
	pairs := make([]map[string]int, maxBatch)
	for i := range pairs {
		pairs[i] = map[string]int{"u": i % fixtureNodes, "v": (7 * i) % fixtureNodes}
	}
	run := func(name, path string, request any, size int, cold bool) {
		b.Run(name, func(b *testing.B) {
			body, err := json.Marshal(request)
			if err != nil {
				b.Fatal(err)
			}
			warm := httptest.NewRequest("POST", path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, warm)
			if w.Code != http.StatusOK {
				b.Fatalf("%s = %d: %s", path, w.Code, w.Body.String())
			}
			if strings.Contains(w.Body.String(), `"status"`) {
				b.Fatalf("batch contains error slots: %s", w.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					srv.swap(srv.current().sys, 0)
					b.StartTimer()
				}
				req := httptest.NewRequest("POST", path, bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatal(w.Code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/cascade")
		})
	}
	for _, regime := range []string{"cold", "warm"} {
		cold := regime == "cold"
		for _, size := range []int{1, 16, 64, 256} {
			run(regime+"/B"+strconv.Itoa(size), "/v1/predict:batch", map[string]any{"cascades": ids[:size]}, size, cold)
		}
		run(regime+"/features:batch/B256", "/v1/features:batch", map[string]any{"cascades": ids}, maxBatch, cold)
	}
	// rate:batch reads no memo (ns/cascade reads ns/pair).
	run("rate:batch/B256", "/v1/rate:batch", map[string]any{"pairs": pairs}, maxBatch, false)
}

// BenchmarkStoreAppend is the SI duplicate guard's cost curve: ns per
// accepted event while cascades grow to a final size, node ids shuffled
// (the guard's insertion point is anywhere), times ascending (the
// feed's common case) except in the last row, where they are shuffled
// too and the time-ordered insertion pays the same kind of memmove.
// Two regimes: live=1M grows 2^20/size cascades side by side, an event
// each in turn — the daemon's case, every append lands on a cascade
// that has left the CPU cache; live=1 finishes one cascade before it
// starts the next, everything hot, the regime kindest to a hash map.
// EXPERIMENTS.md holds both against the per-cascade map the sorted
// index replaced; the feed the serving workloads replay peaks at 258
// infections and a cascade cannot outgrow the model's universe.
func BenchmarkStoreAppend(b *testing.B) {
	const window = 1 << 20 // events before a fresh store bounds what a long run keeps live
	run := func(name string, size, cascades int, inOrder bool) {
		b.Run(name, func(b *testing.B) {
			nodes := rand.New(rand.NewSource(int64(size))).Perm(size)
			var s *Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % window
				if r == 0 {
					s = NewStore()
				}
				group, within := r/(cascades*size), r%(cascades*size)
				j := within / cascades
				ev := Event{Cascade: group*cascades + within%cascades, Node: nodes[j], Time: float64(j)}
				if !inOrder {
					ev.Time = float64(nodes[size-1-j])
				}
				if _, err := s.Append(ev, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	sizes := []int{8, 32, 128, 512, 4096, 32768}
	for _, size := range sizes {
		run("live=1M/size="+strconv.Itoa(size), size, window/size, true)
	}
	run("live=1M/size=128/times-shuffled", 128, window/128, false)
	for _, size := range sizes {
		run("live=1/size="+strconv.Itoa(size), size, 1, true)
	}
}

// benchLoader is the shared test fixture under its testing.TB face.
func benchLoader(b *testing.B) Loader { return fixtureLoader(b) }
