package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// rawBatchItem decodes one slot of a batch response, keeping the result
// raw so tests can compare it against the single-request wire bytes.
type rawBatchItem struct {
	Result json.RawMessage `json:"result"`
	Status int             `json:"status"`
	Error  string          `json:"error"`
}

type rawBatchEnvelope struct {
	Results    []rawBatchItem `json:"results"`
	Count      int            `json:"count"`
	Errors     int            `json:"errors"`
	CacheHits  int            `json:"cache_hits"`
	Generation uint64         `json:"generation"`
}

// postRaw posts a JSON body and returns the status plus the raw bytes.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// canonical re-encodes a decoded value with the daemon's writeJSON
// encoder settings. encoding/json renders a float64 as the shortest
// string that round-trips its exact bits, so two payloads canonicalize
// to the same bytes iff every field — margins included — is
// bit-identical.
func canonical(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingestLateEvents posts infections that all land after the early
// cutoff, producing a live cascade the predictor must reject per item.
func ingestLateEvents(t *testing.T, baseURL string, id int) {
	t.Helper()
	evs := []Event{{Cascade: id, Node: 1, Time: 50}, {Cascade: id, Node: 2, Time: 51}}
	status, body := postJSON(t, baseURL+"/v1/events", map[string]any{"events": evs})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/events = %d, body %v", status, body)
	}
}

// compact encodes a value the way a batch slot carries it: encoding/json
// with no indentation.
func compact(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oraclePredict answers one cascade independently of the serving
// pipeline: the store snapshot through core's scalar
// Predictor.PredictViral, assembled into the wire payload here. A nil
// payload comes with the status and message the endpoints owe instead.
func oraclePredict(t *testing.T, srv *Server, id int) (*predictResponse, int, string) {
	t.Helper()
	cur := srv.current()
	c, ok := srv.store.Snapshot(id)
	if !ok {
		return nil, http.StatusNotFound, fmt.Sprintf("no live cascade %d", id)
	}
	pred := cur.sys.Pred
	viral, margin, err := pred.PredictViral(c)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err.Error()
	}
	return &predictResponse{
		Cascade: id, Viral: viral, Margin: margin, Size: c.Size(),
		EarlyCutoff: pred.EarlyCutoff(), Threshold: pred.Threshold(),
		Generation: cur.gen, ShardID: srv.ShardID(), Epoch: srv.Epoch(),
	}, http.StatusOK, ""
}

// cacheTraffic reads cache_hits + cache_misses off /metrics.
func cacheTraffic(t *testing.T, baseURL string) float64 {
	t.Helper()
	_, m := getJSON(t, baseURL+"/metrics")
	return m["cache_hits"].(float64) + m["cache_misses"].(float64)
}

// TestPredictBatchByteIdenticalToSingle is the tentpole's contract: one
// POST /v1/predict:batch over N cascades answers, slot by slot, the
// exact bytes N sequential single-request calls produce — verdicts,
// margins down to the float bits, and the error message + status for
// the invalid items mixed in. The two endpoints share one pipeline, so
// both are also held to an oracle that shares none of it: core's scalar
// PredictViral through encoding/json, indented for the single endpoint
// and compact per slot. Runs the whole comparison at GOMAXPROCS 1 and 8
// so the blocked kernels can't hide a scheduling-dependent path.
func TestPredictBatchByteIdenticalToSingle(t *testing.T) {
	srv, ts := newTestServer(t)

	// Live cascades of varying size (different feature rows, different
	// kernel remainders), one cascade with no early adopters (per-item
	// 422), one id that was never ingested (per-item 404).
	valid := []int{9100, 9101, 9102, 9103, 9104, 9105}
	for i, id := range valid {
		ingestEvents(t, ts.URL, id, 3+2*i)
	}
	const lateID, missingID = 9200, 424242
	ingestLateEvents(t, ts.URL, lateID)
	ids := []int{valid[0], missingID, valid[1], lateID, valid[2], valid[3], valid[4], valid[5]}

	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			status, raw := postRaw(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": ids})
			if status != http.StatusOK {
				t.Fatalf("predict:batch = %d: %s", status, raw)
			}
			var env rawBatchEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if env.Count != len(ids) || len(env.Results) != len(ids) {
				t.Fatalf("count %d, %d slots, want %d", env.Count, len(env.Results), len(ids))
			}
			if env.Errors != 2 {
				t.Fatalf("errors = %d, want 2 (one 404, one 422): %s", env.Errors, raw)
			}
			for i, id := range ids {
				singleStatus, singleRaw := getRaw(t, ts.URL+"/v1/cascades/"+strconv.Itoa(id)+"/predict")
				item := env.Results[i]
				want, wantStatus, wantErr := oraclePredict(t, srv, id)
				if singleStatus != wantStatus {
					t.Fatalf("item %d (cascade %d): single = %d, core oracle says %d", i, id, singleStatus, wantStatus)
				}
				if want == nil {
					if wantBody := canonical(t, map[string]string{"error": wantErr}); !bytes.Equal(singleRaw, wantBody) {
						t.Fatalf("item %d (cascade %d): single error body\n%s\n!= core oracle\n%s", i, id, singleRaw, wantBody)
					}
					if item.Status != wantStatus || item.Error != wantErr {
						t.Fatalf("item %d (cascade %d): slot (%d, %q) != core oracle (%d, %q)",
							i, id, item.Status, item.Error, wantStatus, wantErr)
					}
				} else {
					if !bytes.Equal(singleRaw, canonical(t, want)) {
						t.Fatalf("item %d (cascade %d): single response\n%s\n!= core oracle\n%s", i, id, singleRaw, canonical(t, want))
					}
					if !bytes.Equal(item.Result, compact(t, want)) {
						t.Fatalf("item %d (cascade %d): batch slot\n%s\n!= core oracle\n%s", i, id, item.Result, compact(t, want))
					}
				}
				if singleStatus != http.StatusOK {
					if item.Result != nil {
						t.Fatalf("item %d (cascade %d): batch succeeded where single = %d", i, id, singleStatus)
					}
					if item.Status != singleStatus {
						t.Fatalf("item %d (cascade %d): status %d != single %d", i, id, item.Status, singleStatus)
					}
					var errBody struct {
						Error string `json:"error"`
					}
					if err := json.Unmarshal(singleRaw, &errBody); err != nil {
						t.Fatal(err)
					}
					if item.Error != errBody.Error {
						t.Fatalf("item %d (cascade %d): error %q != single %q", i, id, item.Error, errBody.Error)
					}
					continue
				}
				if item.Result == nil {
					t.Fatalf("item %d (cascade %d): batch error %d %q where single succeeded", i, id, item.Status, item.Error)
				}
				var got predictResponse
				if err := json.Unmarshal(item.Result, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(canonical(t, &got), singleRaw) {
					t.Fatalf("item %d (cascade %d): batch slot\n%s\n!= single response\n%s",
						i, id, canonical(t, &got), singleRaw)
				}
			}

			// A second identical batch must serve the valid slots from
			// cache — and still answer the same bytes.
			status2, raw2 := postRaw(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": ids})
			if status2 != http.StatusOK {
				t.Fatalf("second predict:batch = %d", status2)
			}
			var env2 rawBatchEnvelope
			if err := json.Unmarshal(raw2, &env2); err != nil {
				t.Fatal(err)
			}
			if env2.CacheHits != len(ids)-2 {
				t.Fatalf("second batch cache_hits = %d, want %d", env2.CacheHits, len(ids)-2)
			}
			for i := range env.Results {
				if !bytes.Equal(env.Results[i].Result, env2.Results[i].Result) ||
					env.Results[i].Status != env2.Results[i].Status ||
					env.Results[i].Error != env2.Results[i].Error {
					t.Fatalf("cached slot %d differs from computed one:\n%s\nvs\n%s",
						i, env.Results[i].Result, env2.Results[i].Result)
				}
			}
		})
	}

	// The single endpoint is the pipeline with the cache stage skipped:
	// it must neither probe nor fill, so the counters stand still.
	before := cacheTraffic(t, ts.URL)
	for i := 0; i < 100; i++ {
		getRaw(t, ts.URL+"/v1/cascades/"+strconv.Itoa(ids[i%len(ids)])+"/predict")
	}
	if after := cacheTraffic(t, ts.URL); after != before {
		t.Fatalf("100 single predictions moved cache_hits+cache_misses from %v to %v", before, after)
	}
}

// TestPredictBatchValidation covers the request-level failure modes:
// malformed body, empty batch, and the batchMax cap of 1024.
func TestPredictBatchValidation(t *testing.T) {
	srv, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postJSON(t, ts.URL+"/v1/predict:batch", map[string]any{"wrong": true}); status != http.StatusBadRequest {
		t.Fatalf("bad body = %d %v", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": []int{}}); status != http.StatusBadRequest {
		t.Fatalf("empty batch = %d %v", status, body)
	}
	ids := make([]int, 1025)
	for i := range ids {
		ids[i] = i + 1
	}
	status, body := postJSON(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": ids})
	if status != http.StatusBadRequest {
		t.Fatalf("over-cap batch = %d %v", status, body)
	}
	if msg := body["error"].(string); !strings.Contains(msg, "batch of 1025 cascades exceeds the daemon's limit 1024") {
		t.Fatalf("over-cap error does not name the limit: %q", msg)
	}
	// At the cap is fine (items 404 individually; the request succeeds).
	if status, _ := postJSON(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": ids[:1024]}); status != http.StatusOK {
		t.Fatalf("at-cap batch = %d", status)
	}
}

// TestRateBatchMatchesSingle compares every slot of a rate:batch answer
// against the single GET /v1/rate endpoint, mixed valid and invalid —
// and, since the two share their per-pair function, holds the valid
// ones to System.Rate through encoding/json as well.
func TestRateBatchMatchesSingle(t *testing.T) {
	srv, ts := newTestServer(t)
	pairs := []map[string]int{
		{"u": 0, "v": 1},
		{"u": -1, "v": 3},
		{"u": 5, "v": 7},
		{"u": 2, "v": fixtureNodes},
		{"u": 149, "v": 148},
	}
	status, raw := postRaw(t, ts.URL+"/v1/rate:batch", map[string]any{"pairs": pairs})
	if status != http.StatusOK {
		t.Fatalf("rate:batch = %d: %s", status, raw)
	}
	var env rawBatchEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Errors != 2 {
		t.Fatalf("errors = %d, want 2: %s", env.Errors, raw)
	}
	for i, p := range pairs {
		singleStatus, singleRaw := getRaw(t, fmt.Sprintf("%s/v1/rate?u=%d&v=%d", ts.URL, p["u"], p["v"]))
		item := env.Results[i]
		if singleStatus != http.StatusOK {
			if item.Status != singleStatus {
				t.Fatalf("pair %d: status %d != single %d", i, item.Status, singleStatus)
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(singleRaw, &errBody); err != nil {
				t.Fatal(err)
			}
			if item.Error != errBody.Error {
				t.Fatalf("pair %d: error %q != single %q", i, item.Error, errBody.Error)
			}
			wantErr := fmt.Sprintf("nodes must be in [0,%d)", fixtureNodes)
			if p["u"] < 0 || p["v"] < 0 {
				wantErr = "parameters u and v must be non-negative integers"
			}
			if singleStatus != http.StatusBadRequest || item.Error != wantErr {
				t.Fatalf("pair %d: (%d, %q), want (400, %q)", i, singleStatus, item.Error, wantErr)
			}
			continue
		}
		cur := srv.current()
		want := &rateResponse{U: p["u"], V: p["v"], Rate: cur.sys.Sys.Rate(p["u"], p["v"]), Generation: cur.gen}
		if !bytes.Equal(singleRaw, canonical(t, want)) {
			t.Fatalf("pair %d: single response\n%s\n!= System.Rate oracle\n%s", i, singleRaw, canonical(t, want))
		}
		if !bytes.Equal(item.Result, compact(t, want)) {
			t.Fatalf("pair %d: batch slot %s != System.Rate oracle %s", i, item.Result, compact(t, want))
		}
		var got rateResponse
		if err := json.Unmarshal(item.Result, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical(t, &got), singleRaw) {
			t.Fatalf("pair %d: batch slot %s != single %s", i, item.Result, singleRaw)
		}
	}
}

// TestFeaturesBatch checks the batched diagnostic surface: per-item
// payloads carry the five paper features bit-identical to a direct
// extraction from the same snapshot, and bad items fail their own slot.
func TestFeaturesBatch(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 9300, 6)
	ingestLateEvents(t, ts.URL, 9301)
	ids := []int{9300, 777777, 9301}

	status, raw := postRaw(t, ts.URL+"/v1/features:batch", map[string]any{"cascades": ids})
	if status != http.StatusOK {
		t.Fatalf("features:batch = %d: %s", status, raw)
	}
	var env rawBatchEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Errors != 2 {
		t.Fatalf("errors = %d, want 2: %s", env.Errors, raw)
	}
	if env.Results[1].Status != http.StatusNotFound {
		t.Fatalf("missing cascade slot = %d, want 404", env.Results[1].Status)
	}
	if env.Results[2].Status != http.StatusUnprocessableEntity {
		t.Fatalf("late cascade slot = %d, want 422", env.Results[2].Status)
	}

	var got featuresPayload
	if err := json.Unmarshal(env.Results[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	cur := srv.current()
	c, ok := srv.store.Snapshot(9300)
	if !ok {
		t.Fatal("cascade 9300 vanished")
	}
	early := c.Prefix(cur.sys.Pred.EarlyCutoff())
	want, err := cur.sys.Sys.Features(early)
	if err != nil {
		t.Fatal(err)
	}
	if got.DiverA != want.DiverA || got.NormA != want.NormA || got.MaxA != want.MaxA ||
		got.EarlyCount != want.EarlyCount || got.EarlyRate != want.EarlyRate {
		t.Fatalf("batch features %+v != direct extraction %+v", got, want)
	}
	if got.Cascade != 9300 || got.Size != c.Size() || got.Generation != cur.gen {
		t.Fatalf("payload metadata wrong: %+v", got)
	}
}

// TestAppendPredictBatchJSONMatchesEncodingJSON pins the open-coded
// envelope encoder to encoding/json, byte for byte, across the float
// formatting regimes ('f' vs 'e', exponent zero-trimming, -0) and the
// default string escaping (quotes, backslashes, control characters, and
// the HTML-unsafe <, >, &).
func TestAppendPredictBatchJSONMatchesEncodingJSON(t *testing.T) {
	margins := []float64{
		0, math.Copysign(0, -1), 0.1, -2.235795019273291, 1e-6, 9.9e-7, -9.9e-7,
		1e21, -1.2345678e22, 1e20, 4.9e-324, math.MaxFloat64, 5063, -1.5e-9,
	}
	env := &batchResponse[predictResponse]{
		Count: len(margins) + 2, Errors: 2, CacheHits: 3,
		Generation: 7, ShardID: -1, Epoch: 12,
	}
	for i, m := range margins {
		env.Results = append(env.Results, batchItem[predictResponse]{Result: &predictResponse{
			Cascade: 9000 + i, Viral: m >= 0, Margin: m, Size: i,
			EarlyCutoff: 2.2857142857142856, Threshold: 33,
			Generation: 7, ShardID: -1, Epoch: 12,
		}})
	}
	env.Results = append(env.Results,
		batchItem[predictResponse]{Status: 404, Error: "no live cascade 42"},
		batchItem[predictResponse]{Status: 422, Error: "tricky <escape> & \"quote\" \\ tab\there\nnewline \x01 ünïcode"},
	)
	want, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n') // json.Encoder appends one; the hand encoder matches it
	got, ok := appendBatchJSON(nil, env, appendPredictJSON)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("hand encoder diverged from encoding/json:\n%s\nvs\n%s", got, want)
	}
}
