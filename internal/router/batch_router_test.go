// Routed batch tests: the owner-split fan-out must re-index every
// sub-batch slot back into caller coordinates — each item answering
// exactly what the single-node oracle answers for that cascade — and a
// dead shard must degrade only its own items.
package router

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"viralcast/internal/serve"
)

// batchIngest seeds the same cascades into a fleet (or oracle) URL:
// each cascade id gets a small, id-dependent early prefix so margins
// differ across items.
func batchIngest(t *testing.T, baseURL string, ids []int) {
	t.Helper()
	var events []map[string]any
	for _, id := range ids {
		for j := 0; j < 3+id%5; j++ {
			events = append(events, map[string]any{
				"cascade": id, "node": (id + j) % fixtureNodes, "time": 0.05 * float64(j+1),
			})
		}
	}
	code, body := postRaw(t, baseURL+"/v1/events", map[string]any{"events": events})
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
}

// routedItem decodes one merged slot; Result stays raw for decoding
// into the endpoint's payload type.
type routedItem struct {
	Result json.RawMessage `json:"result"`
	Status int             `json:"status"`
	Error  string          `json:"error"`
}

type routedEnvelope struct {
	Results       []routedItem `json:"results"`
	Count         int          `json:"count"`
	Errors        int          `json:"errors"`
	Generation    uint64       `json:"generation"`
	Partial       bool         `json:"partial"`
	MissingShards []string     `json:"missing_shards"`
}

// predictSlot is the per-item predict payload with the per-shard
// fields isolated so cross-topology comparisons can ignore them.
type predictSlot struct {
	Cascade     int     `json:"cascade"`
	Viral       bool    `json:"viral"`
	Margin      float64 `json:"margin"`
	Size        int     `json:"size"`
	EarlyCutoff float64 `json:"early_cutoff"`
	Threshold   int     `json:"threshold"`
	Generation  uint64  `json:"generation"`
	ShardID     int     `json:"shard_id"`
	Epoch       uint64  `json:"epoch"`
}

// TestRoutedPredictBatchMatchesOracle ingests the same cascades into
// an unsharded oracle and fleets of several ring sizes, then checks
// every slot of the routed predict:batch answer — interleaved across
// owners and with a missing id mixed in — against the oracle's slot
// for the same cascade: same verdict, bit-identical margin, same error
// message, and a shard_id that matches ring ownership.
func TestRoutedPredictBatchMatchesOracle(t *testing.T) {
	ids := []int{100, 201, 302, 403, 504, 605, 706, 807}
	mixed := []int{ids[0], 999999, ids[3], ids[1], ids[6], ids[2], ids[7], ids[4], ids[5]}

	oracle := newOracle(t)
	batchIngest(t, oracle.URL, ids)
	codeO, bodyO := postRaw(t, oracle.URL+"/v1/predict:batch", map[string]any{"cascades": mixed})
	if codeO != http.StatusOK {
		t.Fatalf("oracle predict:batch = %d: %s", codeO, bodyO)
	}
	var oracleEnv routedEnvelope
	if err := json.Unmarshal(bodyO, &oracleEnv); err != nil {
		t.Fatal(err)
	}

	for _, ringSize := range []int{1, 2, 3} {
		f := newFleet(t, ringSize, nil)
		batchIngest(t, f.url(), ids)
		code, body := postRaw(t, f.url()+"/v1/predict:batch", map[string]any{"cascades": mixed})
		if code != http.StatusOK {
			t.Fatalf("shards=%d: predict:batch = %d: %s", ringSize, code, body)
		}
		var env routedEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.Count != len(mixed) || len(env.Results) != len(mixed) {
			t.Fatalf("shards=%d: %d slots for %d cascades", ringSize, len(env.Results), len(mixed))
		}
		if env.Partial || env.Errors != 1 {
			t.Fatalf("shards=%d: partial=%v errors=%d, want complete with 1 error: %s",
				ringSize, env.Partial, env.Errors, body)
		}
		for i, id := range mixed {
			want, got := oracleEnv.Results[i], env.Results[i]
			if want.Result == nil {
				if got.Status != want.Status || got.Error != want.Error {
					t.Fatalf("shards=%d item %d (cascade %d): slot (%d, %q) != oracle (%d, %q)",
						ringSize, i, id, got.Status, got.Error, want.Status, want.Error)
				}
				continue
			}
			var ws, gs predictSlot
			if err := json.Unmarshal(want.Result, &ws); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got.Result, &gs); err != nil {
				t.Fatalf("shards=%d item %d: bad slot %s: %v", ringSize, i, got.Result, err)
			}
			if gs.ShardID != f.router.Ring().Owner(id) {
				t.Fatalf("shards=%d item %d (cascade %d): answered by shard %d, ring owner is %d",
					ringSize, i, id, gs.ShardID, f.router.Ring().Owner(id))
			}
			gs.ShardID, ws.ShardID = 0, 0 // per-topology facts, excluded from identity
			gs.Epoch, ws.Epoch = 0, 0
			if gs.Cascade != ws.Cascade || gs.Viral != ws.Viral || gs.Size != ws.Size ||
				gs.Threshold != ws.Threshold || gs.Generation != ws.Generation ||
				math.Float64bits(gs.Margin) != math.Float64bits(ws.Margin) ||
				math.Float64bits(gs.EarlyCutoff) != math.Float64bits(ws.EarlyCutoff) {
				t.Fatalf("shards=%d item %d (cascade %d): routed slot %+v != oracle %+v",
					ringSize, i, id, gs, ws)
			}
		}
	}
}

// TestRoutedPredictBatchPartialOnDeadShard kills one shard and checks
// the degradation contract: the batch still answers 200, the dead
// shard's items become per-item 502 slots naming it, and every item
// owned by a healthy shard answers normally.
func TestRoutedPredictBatchPartialOnDeadShard(t *testing.T) {
	const ringSize = 3
	f := newFleet(t, ringSize, nil)
	ids := []int{100, 201, 302, 403, 504, 605, 706, 807, 908, 1009}
	batchIngest(t, f.url(), ids)

	dead := f.router.Ring().Owner(ids[0])
	f.shards[dead].Close()

	code, body := postRaw(t, f.url()+"/v1/predict:batch", map[string]any{"cascades": ids})
	if code != http.StatusOK {
		t.Fatalf("predict:batch with dead shard = %d: %s", code, body)
	}
	var env routedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Partial {
		t.Fatalf("response not marked partial: %s", body)
	}
	if len(env.MissingShards) != 1 || env.MissingShards[0] != ShardName(dead) {
		t.Fatalf("missing_shards = %v, want [%s]", env.MissingShards, ShardName(dead))
	}
	deadItems, liveItems := 0, 0
	for i, id := range ids {
		slot := env.Results[i]
		if f.router.Ring().Owner(id) == dead {
			deadItems++
			if slot.Status != http.StatusBadGateway {
				t.Fatalf("item %d (cascade %d, dead shard): status %d, want 502", i, id, slot.Status)
			}
			if want := ShardName(dead) + " did not answer"; len(slot.Error) < len(want) || slot.Error[:len(want)] != want {
				t.Fatalf("item %d error does not name the dead shard: %q", i, slot.Error)
			}
			continue
		}
		liveItems++
		if slot.Result == nil {
			t.Fatalf("item %d (cascade %d, healthy shard) failed: %d %q", i, id, slot.Status, slot.Error)
		}
	}
	if deadItems == 0 || liveItems == 0 {
		t.Fatalf("degenerate split: %d dead items, %d live items — pick ids spanning shards", deadItems, liveItems)
	}
	if env.Errors != deadItems {
		t.Fatalf("errors = %d, want %d", env.Errors, deadItems)
	}
}

// TestRoutedRateBatchByteIdenticalToOracle: rate:batch is replicated
// work relayed whole, so the routed body must be byte-identical to the
// oracle's — including per-item 400 slots.
func TestRoutedRateBatchByteIdenticalToOracle(t *testing.T) {
	oracle := newOracle(t)
	pairs := []map[string]int{
		{"u": 0, "v": 1}, {"u": -3, "v": 2}, {"u": 7, "v": 9},
		{"u": 1, "v": fixtureNodes}, {"u": 148, "v": 149},
	}
	codeO, bodyO := postRaw(t, oracle.URL+"/v1/rate:batch", map[string]any{"pairs": pairs})
	if codeO != http.StatusOK {
		t.Fatalf("oracle rate:batch = %d: %s", codeO, bodyO)
	}
	for _, ringSize := range []int{1, 3} {
		f := newFleet(t, ringSize, nil)
		code, body := postRaw(t, f.url()+"/v1/rate:batch", map[string]any{"pairs": pairs})
		if code != http.StatusOK {
			t.Fatalf("shards=%d: rate:batch = %d: %s", ringSize, code, body)
		}
		if string(body) != string(bodyO) {
			t.Fatalf("shards=%d: routed rate:batch differs from oracle:\n%s\nvs\n%s", ringSize, body, bodyO)
		}
	}
}

// TestRoutedBatchValidation: the router rejects malformed and empty
// batch bodies itself, with the daemon's messages.
func TestRoutedBatchValidation(t *testing.T) {
	f := newFleet(t, 2, nil)
	for _, body := range []map[string]any{{"wrong": 1}, {"cascades": []int{}}} {
		code, resp := postRaw(t, f.url()+"/v1/predict:batch", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %v = %d: %s", body, code, resp)
		}
	}
	if code, resp := postRaw(t, f.url()+"/v1/features:batch", map[string]any{"cascades": []int{}}); code != http.StatusBadRequest {
		t.Fatalf("features empty batch = %d: %s", code, resp)
	}
}

// TestRoutedBatchShardRefusalIsNotMissing: a healthy shard that refuses
// its sub-batch with a client error — here 1025 cascades against the
// daemon's batch cap of 1024, a cap the router does not have — answered,
// so its items carry the shard's own status and message, and the
// envelope is not a partial: no missing_shards, no shard_errors, no
// partial_results.
func TestRoutedBatchShardRefusalIsNotMissing(t *testing.T) {
	srv, err := serve.New(serve.Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(srv.Handler())
	t.Cleanup(shard.Close)
	t.Cleanup(func() { srv.Close() })
	rt, err := New(Config{Shards: []Shard{{Primary: shard.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	ids := make([]int, 1025)
	for i := range ids {
		ids[i] = i + 1
	}
	req := map[string]any{"cascades": ids}
	codeS, bodyS := postRaw(t, shard.URL+"/v1/predict:batch", req)
	if codeS != http.StatusBadRequest {
		t.Fatalf("shard took a batch over its cap: %d %s", codeS, bodyS)
	}
	refusal := decodeJSON(t, bodyS)["error"].(string)

	code, body := postRaw(t, front.URL+"/v1/predict:batch", req)
	if code != http.StatusOK {
		t.Fatalf("routed predict:batch = %d: %s", code, body)
	}
	var env routedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Partial || len(env.MissingShards) != 0 {
		t.Fatalf("a shard that answered 400 was reported missing: %s", body)
	}
	if env.Errors != len(ids) || len(env.Results) != len(ids) {
		t.Fatalf("errors=%d over %d slots, want %d error slots", env.Errors, len(env.Results), len(ids))
	}
	for i, slot := range env.Results {
		if slot.Status != http.StatusBadRequest || slot.Error != refusal {
			t.Fatalf("slot %d = (%d, %q), want the shard's (400, %q)", i, slot.Status, slot.Error, refusal)
		}
	}
	_, metrics := getRaw(t, front.URL+"/metrics")
	m := decodeJSON(t, metrics)
	if n := m["partial_results"].(float64); n != 0 {
		t.Fatalf("partial_results = %v after a client error", n)
	}
	if errs := m["shard_errors"].(map[string]any); len(errs) != 0 {
		t.Fatalf("shard_errors = %v after a client error", errs)
	}
}
