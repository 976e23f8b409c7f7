// Wire-level checks of the hand-encoded endpoints: every response the
// daemon renders without encoding/json is held to the reflective
// encoding of the same values — encoder by encoder (table + fuzz), and
// end to end through the handlers — and every body the scanners hand
// back to the strict decoder earns the status and message it always
// did.
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"viralcast/internal/httpkit"
)

// postBody posts raw bytes and returns the status plus the raw reply.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func compactLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n') // json.Encoder appends one; the hand encoders match it
}

// checkBatchEncoder holds one envelope encoder to encoding/json: same
// bytes, and a refusal exactly where encoding/json errors.
func checkBatchEncoder(t testing.TB, env any, encode func(b []byte) ([]byte, bool)) {
	t.Helper()
	want, err := json.Marshal(env)
	got, ok := encode(nil)
	if ok != (err == nil) {
		t.Fatalf("hand encoder ok=%v, encoding/json err=%v", ok, err)
	}
	if ok && !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("hand encoder diverged from encoding/json:\n%s\nvs\n%s", got, want)
	}
}

func checkPredictBatch(t testing.TB, env *batchResponse[predictResponse]) {
	checkBatchEncoder(t, env, func(b []byte) ([]byte, bool) { return appendBatchJSON(b, env, appendPredictJSON) })
}

func checkFeaturesBatch(t testing.TB, env *batchResponse[featuresPayload]) {
	checkBatchEncoder(t, env, func(b []byte) ([]byte, bool) { return appendBatchJSON(b, env, appendFeaturesJSON) })
}

func checkRateBatch(t testing.TB, env *rateBatchResponse) {
	checkBatchEncoder(t, env, func(b []byte) ([]byte, bool) { return appendRateBatchJSON(b, env) })
}

var wireFloats = []float64{
	0, math.Copysign(0, -1), 0.1, -2.235795019273291, 1e-6, 9.9e-7, 1e21, -1.2345678e22, 1e20,
	4.9e-324, math.MaxFloat64, 5063, -1.5e-9, 2.2857142857142856,
}

const trickyError = "tricky <escape> & \"quote\" \\ tab\there\nnewline \x01 \b\f   \xff ünïcode"

// TestBatchEncodersMatchEncodingJSON pins the features:batch and
// rate:batch encoders the way TestAppendPredictBatchJSONMatchesEncodingJSON
// pins predict:batch: success slots across the float regimes, error
// slots with every escape, the empty envelope, a memoized early cutoff
// that changes mid-batch (0 then -0: equal, rendered differently), and
// the non-finite refusal.
func TestBatchEncodersMatchEncodingJSON(t *testing.T) {
	features := &batchResponse[featuresPayload]{Errors: 2, CacheHits: 3, Generation: 7, ShardID: 2, Epoch: 12}
	rates := &rateBatchResponse{Errors: 2, Generation: 7}
	for i, f := range wireFloats {
		g := wireFloats[(i+3)%len(wireFloats)]
		features.Results = append(features.Results, batchItem[featuresPayload]{Result: &featuresPayload{
			Cascade: 9000 + i, DiverA: f, NormA: g, MaxA: -f, EarlyCount: float64(i), EarlyRate: g / 3,
			Size: i, EarlyCutoff: []float64{2.2857142857142856, 0, math.Copysign(0, -1)}[i%3], Generation: 7,
		}})
		rates.Results = append(rates.Results, batchItem[rateResponse]{Result: &rateResponse{U: i, V: -i, Rate: f, Generation: 7}})
	}
	// The last three never leave a handler; the slot type's omitempty
	// tags give them a rendering all the same, and the fuzzer asks.
	features.Results = append(features.Results,
		batchItem[featuresPayload]{Status: 404, Error: "no live cascade 42"},
		batchItem[featuresPayload]{Status: 422, Error: trickyError},
		batchItem[featuresPayload]{Status: 448}, batchItem[featuresPayload]{Error: "x"}, batchItem[featuresPayload]{})
	rates.Results = append(rates.Results,
		batchItem[rateResponse]{Status: 400, Error: "nodes must be in [0,150)"},
		batchItem[rateResponse]{Status: 400, Error: trickyError},
		batchItem[rateResponse]{Result: &rateResponse{U: 1}, Status: 500, Error: "both"}, batchItem[rateResponse]{})
	features.Count, rates.Count = len(features.Results), len(rates.Results)
	checkFeaturesBatch(t, features)
	checkRateBatch(t, rates)
	checkFeaturesBatch(t, &batchResponse[featuresPayload]{Results: []batchItem[featuresPayload]{}, ShardID: -1})
	checkRateBatch(t, &rateBatchResponse{Results: []batchItem[rateResponse]{}})

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkFeaturesBatch(t, &batchResponse[featuresPayload]{Count: 1,
			Results: []batchItem[featuresPayload]{{Result: &featuresPayload{MaxA: bad}}}})
		checkFeaturesBatch(t, &batchResponse[featuresPayload]{Count: 2,
			Results: []batchItem[featuresPayload]{{Result: &featuresPayload{EarlyCutoff: bad}}, {Result: &featuresPayload{EarlyCutoff: bad}}}})
		checkRateBatch(t, &rateBatchResponse{Count: 1, Results: []batchItem[rateResponse]{{Result: &rateResponse{Rate: bad}}}})
		checkPredictBatch(t, &batchResponse[predictResponse]{Count: 1,
			Results: []batchItem[predictResponse]{{Result: &predictResponse{Margin: bad}}}})
		checkPredictBatch(t, &batchResponse[predictResponse]{Count: 1,
			Results: []batchItem[predictResponse]{{Result: &predictResponse{EarlyCutoff: bad}}}})
	}
}

// fuzzItems derives a batch's slots from raw bytes, 20 per slot: a
// leading byte picks success or error, the rest feeds the fields.
func fuzzItems[R any](raw []byte, msg string, build func(p []byte, f, g float64) *R) []batchItem[R] {
	items := []batchItem[R]{}
	for ; len(raw) >= 20; raw = raw[20:] {
		if raw[0]%4 == 0 {
			items = append(items, batchItem[R]{Status: 400 + int(raw[1]), Error: msg})
			continue
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[4:]))
		g := math.Float64frombits(binary.LittleEndian.Uint64(raw[12:]))
		items = append(items, batchItem[R]{Result: build(raw, f, g)})
	}
	return items
}

func addBatchSeeds(f *testing.F) {
	f.Add([]byte{}, "", uint64(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0x40}, 5), "no live cascade 42", uint64(7))
	f.Add(append(bytes.Repeat([]byte{0}, 20), bytes.Repeat([]byte{0xff}, 20)...), trickyError, uint64(math.MaxUint64))
}

func FuzzAppendPredictBatchJSON(f *testing.F) {
	addBatchSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, msg string, gen uint64) {
		items := fuzzItems(raw, msg, func(p []byte, f, g float64) *predictResponse {
			return &predictResponse{Cascade: int(int8(p[1])), Viral: p[2]%2 == 1, Margin: f, Size: int(p[3]),
				EarlyCutoff: g, Threshold: int(p[2]), Generation: gen, ShardID: int(int8(p[3])), Epoch: gen >> 3}
		})
		checkPredictBatch(t, &batchResponse[predictResponse]{Results: items, Count: len(items),
			Errors: len(raw) % 7, CacheHits: len(raw) % 5, Generation: gen, ShardID: -1, Epoch: gen >> 1})
	})
}

func FuzzAppendFeaturesBatchJSON(f *testing.F) {
	addBatchSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, msg string, gen uint64) {
		items := fuzzItems(raw, msg, func(p []byte, f, g float64) *featuresPayload {
			return &featuresPayload{Cascade: int(int8(p[1])), DiverA: f, NormA: g, MaxA: -f, EarlyCount: float64(p[2]),
				EarlyRate: f * g, Size: int(p[3]), EarlyCutoff: g, Generation: gen}
		})
		checkFeaturesBatch(t, &batchResponse[featuresPayload]{Results: items, Count: len(items),
			Errors: len(raw) % 7, CacheHits: len(raw) % 5, Generation: gen, ShardID: 3, Epoch: gen >> 1})
	})
}

func FuzzAppendRateBatchJSON(f *testing.F) {
	addBatchSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, msg string, gen uint64) {
		items := fuzzItems(raw, msg, func(p []byte, f, _ float64) *rateResponse {
			return &rateResponse{U: int(p[1]), V: -int(p[2]), Rate: f, Generation: gen}
		})
		checkRateBatch(t, &rateBatchResponse{Results: items, Count: len(items), Errors: len(raw) % 7, Generation: gen})
	})
}

// TestHandEncodedResponsesMatchReflective drives the hand-encoded
// endpoints end to end and requires the bytes WriteJSON (indented) or
// compact encoding/json would have produced for the same values.
func TestHandEncodedResponsesMatchReflective(t *testing.T) {
	srv, ts := newTestServer(t)

	// Ingest acks: rejected null vs listed, sizes keyed in string order
	// ("10" < "100" < "9"), a cascade fed twice reporting its last size.
	var events []Event
	for _, id := range []int{9, 10, 100, 9} {
		events = append(events, Event{Cascade: id, Node: len(events), Time: 0.1 * float64(len(events)+1)})
	}
	status, raw := postRaw(t, ts.URL+"/v1/events", map[string]any{"events": events})
	want := canonical(t, map[string]any{"accepted": 4, "rejected": nil, "sizes": map[string]int{"9": 2, "10": 1, "100": 1}})
	if status != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("clean ack = %d\n%s\nwant\n%s", status, raw, want)
	}
	status, raw = postRaw(t, ts.URL+"/v1/events", map[string]any{"events": []Event{
		{Cascade: 9, Node: 0, Time: 0.5}, {Cascade: 11, Node: fixtureNodes, Time: 0.5}, {Cascade: 11, Node: 1, Time: 0.5},
	}})
	want = canonical(t, map[string]any{"accepted": 1, "sizes": map[string]int{"11": 1}, "rejected": []httpkit.EventReject{
		{Index: 0, Error: "node 0 already infected in cascade 9 (SI process forbids re-infection)"},
		{Index: 1, Error: fmt.Sprintf("node %d outside the model's universe [0,%d)", fixtureNodes, fixtureNodes)},
	}})
	if status != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("ack with rejections = %d\n%s\nwant\n%s", status, raw, want)
	}
	status, raw = postRaw(t, ts.URL+"/v1/events", map[string]any{"events": []Event{{Cascade: -1, Node: 0, Time: 0.5}}})
	want = canonical(t, map[string]any{"accepted": 0, "sizes": map[string]int{},
		"rejected": []httpkit.EventReject{{Index: 0, Error: "negative cascade id -1"}}})
	if status != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("all-rejected ack = %d\n%s\nwant\n%s", status, raw, want)
	}

	// Rankings: computed, then cached.
	cur := srv.current()
	for _, cached := range []bool{false, true} {
		status, raw := getRaw(t, ts.URL+"/v1/influencers?k=7")
		want := canonical(t, &influencersResponse{Influencers: cur.sys.Sys.TopInfluencers(7), Cached: cached, Generation: cur.gen})
		if status != http.StatusOK || !bytes.Equal(raw, want) {
			t.Fatalf("influencers (cached=%v) = %d\n%s\nwant\n%s", cached, status, raw, want)
		}
	}

	// features:batch and rate:batch: decode the envelope into the typed
	// response and re-encode it reflectively — equal bytes mean the hand
	// encoder wrote what the reflective one would have.
	ingestLateEvents(t, ts.URL, 9301)
	status, raw = postRaw(t, ts.URL+"/v1/features:batch", map[string]any{"cascades": []int{9, 777777, 9301, 10}})
	var features batchResponse[featuresPayload]
	if err := json.Unmarshal(raw, &features); err != nil || status != http.StatusOK {
		t.Fatalf("features:batch = %d, %v: %s", status, err, raw)
	}
	if features.Errors != 2 || !bytes.Equal(raw, compactLine(t, &features)) {
		t.Fatalf("features:batch wrote\n%s\nreflective encoder\n%s", raw, compactLine(t, &features))
	}
	status, raw = postRaw(t, ts.URL+"/v1/rate:batch", map[string]any{"pairs": []map[string]int{{"u": 0, "v": 1}, {"u": -1, "v": 3}, {"u": 2, "v": fixtureNodes}}})
	var rates rateBatchResponse
	if err := json.Unmarshal(raw, &rates); err != nil || status != http.StatusOK {
		t.Fatalf("rate:batch = %d, %v: %s", status, err, raw)
	}
	if rates.Errors != 2 || !bytes.Equal(raw, compactLine(t, &rates)) {
		t.Fatalf("rate:batch wrote\n%s\nreflective encoder\n%s", raw, compactLine(t, &rates))
	}
}

// TestNonCanonicalBodiesKeepTheStrictContract: whatever the scanners do
// not recognise is the strict decoder's to judge — accepted exactly as
// before (reordered or capitalised keys, whitespace, the bare event), or
// refused with the endpoint's one message (floats for ints, numbers out
// of range, unknown fields, and — since DecodeStrict stopped ignoring
// them — trailing bytes).
func TestNonCanonicalBodiesKeepTheStrictContract(t *testing.T) {
	_, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 31, 3)
	const (
		eventsMsg   = `body must be {"events": [...]} or a single {cascade, node, time} object`
		cascadesMsg = `body must be {"cascades": [id, ...]}`
		pairsMsg    = `body must be {"pairs": [{"u": ..., "v": ...}, ...]}`
	)
	for _, tc := range []struct {
		path, body string
		status     int
		msg        string // the 400's message
	}{
		{"/v1/events", `{"events":[{"time":0.5,"node":7,"cascade":40}]}`, 200, ""},
		{"/v1/events", `{"Events":[{"Cascade":40,"NODE":8,"time":5e-1}]}`, 200, ""},
		{"/v1/events", " {\n\t\"cascade\": 40, \"node\": 9, \"time\": 0.5\n} ", 200, ""},
		{"/v1/events", "\n{ \"events\" : [ { \"cascade\" : 40 , \"node\" : 10 , \"time\" : 0.5 } ] }\n", 200, ""},
		{"/v1/events", `{"events":[{"cascade":40.0,"node":11,"time":0.5}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":1e1,"time":0.5}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":1e999}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":0.5,"x":1}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":0.5}]} trailing garbage {`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":0.5}]}{"events":[]}`, 400, eventsMsg},
		{"/v1/events", `{"cascade":40,"node":11,"time":0.5}{}`, 400, eventsMsg},
		{"/v1/events", `{"events":[]}`, 400, "empty event batch"},
		{"/v1/predict:batch", `{"Cascades":[31]}`, 200, ""},
		{"/v1/predict:batch", " { \"cascades\" : [ 31 , 32 ] } ", 200, ""},
		{"/v1/predict:batch", `{"cascades":[31.0]}`, 400, cascadesMsg},
		{"/v1/predict:batch", `{"cascades":[1e2]}`, 400, cascadesMsg},
		{"/v1/predict:batch", `{"cascades":[031]}`, 400, cascadesMsg},
		{"/v1/predict:batch", `{"cascades":[31]} trailing garbage {`, 400, cascadesMsg},
		{"/v1/features:batch", `{"cascades":[31]}{"cascades":[32]}`, 400, cascadesMsg},
		{"/v1/features:batch", `{"cascades":[]}`, 400, "empty cascade batch"},
		{"/v1/rate:batch", `{"pairs":[{"v":2,"u":1},{"U":3,"V":4},{"u":5}]}`, 200, ""},
		{"/v1/rate:batch", `{"pairs":[{"u":1.0,"v":2}]}`, 400, pairsMsg},
		{"/v1/rate:batch", `{"pairs":[{"u":1,"v":2}]} x`, 400, pairsMsg},
		{"/v1/rate:batch", `{"pairs":[{"u":1,"v":2}]}{"pairs":[]}`, 400, pairsMsg},
		{"/v1/rate:batch", `{"pairs":[]}`, 400, "empty pair batch"},
	} {
		status, raw := postBody(t, ts.URL+tc.path, tc.body)
		if status != tc.status {
			t.Fatalf("POST %s %q = %d, want %d: %s", tc.path, tc.body, status, tc.status, raw)
		}
		if want := canonical(t, map[string]string{"error": tc.msg}); tc.status == 400 && !bytes.Equal(raw, want) {
			t.Fatalf("POST %s %q answered\n%s\nwant\n%s", tc.path, tc.body, raw, want)
		}
	}
	// The non-canonical writes all landed: three by envelope, one bare.
	if _, body := getJSON(t, ts.URL+"/v1/cascades/40"); body["size"] != float64(4) {
		t.Fatalf("cascade 40 after the accepted bodies: %v", body)
	}
}

// cascadesBody renders the canonical {"cascades":[...]} body over ids.
func cascadesBody(ids []int) []byte {
	body := []byte(`{"cascades":[`)
	for i, id := range ids {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(id), 10)
	}
	return append(body, "]}"...)
}

// TestPredictBatchCopiesOnlyMisses: a batch answered wholly from the
// early-adopter memo copies no cascade and allocates nothing per item,
// so 256 hits cost what 16 do, and a cascade whose early prefix has
// grown is a miss again, answered at its new size.
func TestPredictBatchCopiesOnlyMisses(t *testing.T) {
	srv, ts := newTestServer(t)
	h := srv.Handler()
	ids := make([]int, 256)
	for i := range ids {
		ids[i] = 7000 + i
		for j := 0; j < 6; j++ {
			if _, err := srv.store.Append(Event{Cascade: ids[i], Node: (i + j) % 32, Time: 0.05 * float64(j+1)}, fixtureNodes); err != nil {
				t.Fatal(err)
			}
		}
	}
	serveBatch := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict:batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("predict:batch = %d: %s", w.Code, w.Body)
		}
		return w
	}
	few, all := cascadesBody(ids[:16]), cascadesBody(ids)
	serveBatch(all) // fill the cache
	var env rawBatchEnvelope
	if err := json.Unmarshal(serveBatch(all).Body.Bytes(), &env); err != nil || env.CacheHits != len(ids) || env.Errors != 0 {
		t.Fatalf("warm batch: %d hits, %d errors, %v", env.CacheHits, env.Errors, err)
	}
	small := testing.AllocsPerRun(50, func() { serveBatch(few) })
	large := testing.AllocsPerRun(50, func() { serveBatch(all) })
	// A per-item allocation would add 240; buffers sized in more steps,
	// and the race detector's leaky sync.Pool, add a handful.
	if large > small+24 {
		t.Fatalf("an all-hits batch allocates per item: %.0f allocations at 16 items, %.0f at 256", small, large)
	}

	ingestEvents(t, ts.URL, 7300, 4)
	status, first := postRaw(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": []int{7300}})
	status2, again := postRaw(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": []int{7300}})
	if status != http.StatusOK || status2 != http.StatusOK || !bytes.Contains(first, []byte(`"size":4`)) ||
		!bytes.Contains(first, []byte(`"cache_hits":0`)) || !bytes.Contains(again, []byte(`"cache_hits":1`)) {
		t.Fatalf("miss then hit:\n%s\n%s", first, again)
	}
	if _, err := srv.store.Append(Event{Cascade: 7300, Node: 40, Time: 0.3}, fixtureNodes); err != nil {
		t.Fatal(err)
	}
	_, grown := postRaw(t, ts.URL+"/v1/predict:batch", map[string]any{"cascades": []int{7300}})
	want, _, _ := oraclePredict(t, srv, 7300)
	if !bytes.Contains(grown, []byte(`"cache_hits":0`)) || !bytes.Contains(grown, compact(t, want)) {
		t.Fatalf("grown cascade answered\n%s\nwant a fresh slot %s", grown, compact(t, want))
	}
}
