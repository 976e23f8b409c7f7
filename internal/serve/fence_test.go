package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"viralcast/internal/httpkit"
	"viralcast/internal/wal"
)

// postWithEpoch POSTs body to url carrying the fencing-epoch header,
// decoding the JSON answer.
func postWithEpoch(t *testing.T, url string, epoch uint64, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if epoch > 0 {
		req.Header.Set(httpkit.EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("undecodable response from %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestPromoteStaleEpochRejected is the satellite-2 contract: a promote
// carrying an epoch at or below the persisted one answers 409
// {"reason":"fenced"} and changes nothing — a stale script cannot
// resurrect split-brain.
func TestPromoteStaleEpochRejected(t *testing.T) {
	dir := t.TempDir()
	_, ts := newWALServer(t, dir)
	// Advance the primary's epoch explicitly (a supervisor fence bump).
	code, body := postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": 5})
	if code != http.StatusOK || body["promoted"] != false || body["epoch"].(float64) != 5 {
		t.Fatalf("epoch advance on primary: code %d body %v", code, body)
	}
	for _, stale := range []uint64{1, 4, 5} {
		code, body = postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": stale})
		if code != http.StatusConflict || body["reason"] != "fenced" {
			t.Fatalf("stale promote epoch %d: code %d body %v", stale, code, body)
		}
	}
	if got, err := wal.ReadEpoch(dir); err != nil || got != 5 {
		t.Fatalf("persisted epoch after stale promotes: %d err %v, want 5", got, err)
	}
	// The epoch survives a process restart, CRC-verified.
	srv2, ts2 := newWALServer(t, dir)
	if srv2.Epoch() != 5 {
		t.Fatalf("epoch after restart: %d, want 5", srv2.Epoch())
	}
	code, ready := getJSON(t, ts2.URL+"/readyz")
	if code != http.StatusOK || ready["epoch"].(float64) != 5 || ready["fenced"] != false {
		t.Fatalf("restarted readyz: code %d body %v", code, ready)
	}
}

// TestFenceLatchAndRejects: a node that observes a higher epoch on any
// gated request (here: the readyz probe and an ingest) latches fenced
// and answers 409 {"reason":"fenced"} on ingest and flush — even for
// requests that carry no epoch at all, which is exactly the zombie
// ex-primary taking direct writes from a stale client.
func TestFenceLatchAndRejects(t *testing.T) {
	_, ts := newWALServer(t, t.TempDir())
	// Before any observation the node serves normally.
	if code := postEvent(t, ts.URL, 10, 1, 0.1); code != http.StatusOK {
		t.Fatalf("pre-fence ingest: status %d", code)
	}

	// A probe carrying a higher epoch is how the router tells a zombie
	// the fleet moved on.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpkit.EpochHeader, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready["fenced"] != true || ready["status"] != "fenced" || ready["fencing_epoch"].(float64) != 3 {
		t.Fatalf("readyz after observing epoch 3: %v", ready)
	}

	// Ingest and flush now bounce with the machine-readable fence.
	code, body := postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 10, "node": 2, "time": 0.2})
	if code != http.StatusConflict || body["reason"] != "fenced" || body["fencing_epoch"].(float64) != 3 {
		t.Fatalf("fenced ingest: code %d body %v", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/flush", nil)
	if code != http.StatusConflict || body["reason"] != "fenced" {
		t.Fatalf("fenced flush: code %d body %v", code, body)
	}
	// Reads keep serving: fencing guards the mutating surface only.
	if code, _ := getJSON(t, ts.URL+"/v1/cascades/10"); code != http.StatusOK {
		t.Fatalf("fenced read: status %d", code)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if m["fenced"].(float64) != 1 || m["fencing_epoch"].(float64) != 3 || m["fence_rejects"].(float64) < 2 {
		t.Fatalf("fence metrics: fenced=%v fencing_epoch=%v rejects=%v", m["fenced"], m["fencing_epoch"], m["fence_rejects"])
	}

	// A bare promote cannot clear the fence (it would re-fork history)…
	code, body = postJSON(t, ts.URL+"/v1/promote", nil)
	if code != http.StatusConflict || body["reason"] != "fenced" {
		t.Fatalf("bare promote on fenced node: code %d body %v", code, body)
	}
	// …but an explicit supervisor promote above the fence does.
	code, body = postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": 4})
	if code != http.StatusOK {
		t.Fatalf("resurrecting promote: code %d body %v", code, body)
	}
	if code := postEvent(t, ts.URL, 10, 3, 0.3); code != http.StatusOK {
		t.Fatalf("ingest after resurrection: status %d", code)
	}
}

// TestFenceStaleRequestEpoch: a request that presents an epoch below
// the node's own is from a caller routing by a pre-failover map; it is
// refused 409 so the caller re-learns the topology.
func TestFenceStaleRequestEpoch(t *testing.T) {
	_, ts := newWALServer(t, t.TempDir())
	code, body := postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": 7})
	if code != http.StatusOK {
		t.Fatalf("epoch advance: code %d body %v", code, body)
	}
	code, body = postWithEpoch(t, ts.URL+"/v1/events", 3, map[string]any{"cascade": 1, "node": 1, "time": 0.1})
	if code != http.StatusConflict || body["reason"] != "fenced" || body["request_epoch"].(float64) != 3 {
		t.Fatalf("stale-epoch ingest: code %d body %v", code, body)
	}
	// The matching epoch passes.
	code, _ = postWithEpoch(t, ts.URL+"/v1/events", 7, map[string]any{"cascade": 1, "node": 1, "time": 0.1})
	if code != http.StatusOK {
		t.Fatalf("current-epoch ingest: code %d", code)
	}
}

// TestPromoteEpochMonotonicProperty drives a server through arbitrary
// promote sequences — random explicit epochs, auto-bumps, observed
// fences — and asserts the persisted epoch is strictly monotonic and
// always equals what a restart would read back.
func TestPromoteEpochMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xface))
	dir := t.TempDir()
	srv, ts := newWALServer(t, dir)
	var model uint64 // what the epoch must be
	for op := 0; op < 80; op++ {
		prev := model
		switch rng.Intn(3) {
		case 0: // explicit promote around the current epoch
			candidate := int64(model) + rng.Int63n(5) - 2
			if candidate < 0 {
				candidate = 0
			}
			req := uint64(candidate)
			code, body := postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": req})
			switch {
			case req > model:
				if code != http.StatusOK {
					t.Fatalf("op %d: valid promote to %d over %d answered %d", op, req, model, code)
				}
				model = req
			case req == 0:
				// {"epoch":0} reads as a bare promote; on a primary it is
				// a reported no-op and the epoch stays put.
				if code != http.StatusOK || body["promoted"] != false {
					t.Fatalf("op %d: zero-epoch promote: code %d body %v", op, code, body)
				}
			default:
				if code != http.StatusConflict || body["reason"] != "fenced" {
					t.Fatalf("op %d: stale promote to %d over %d answered %d body %v", op, req, model, code, body)
				}
			}
		case 1: // bare promote on a primary: reported no-op, epoch unchanged
			code, body := postJSON(t, ts.URL+"/v1/promote", nil)
			if code != http.StatusOK || body["promoted"] != false {
				t.Fatalf("op %d: bare promote: code %d body %v", op, code, body)
			}
		case 2: // foreign observation at or below our epoch: no fence
			if model > 0 {
				postWithEpoch(t, ts.URL+"/v1/events", uint64(rng.Int63n(int64(model)))+1,
					map[string]any{"cascade": 2, "node": 1, "time": 0.5})
			}
		}
		if got := srv.Epoch(); got != model {
			t.Fatalf("op %d: live epoch %d, model %d", op, got, model)
		}
		if got, err := wal.ReadEpoch(dir); err != nil || got != model {
			t.Fatalf("op %d: persisted epoch %d (err %v), model %d", op, got, err, model)
		}
		if model < prev {
			t.Fatalf("op %d: epoch moved backwards %d -> %d", op, prev, model)
		}
	}
	// Cold restart reads the final epoch back, CRC-verified.
	srv2, _ := newWALServer(t, dir)
	if srv2.Epoch() != model {
		t.Fatalf("epoch after restart: %d, want %d", srv2.Epoch(), model)
	}
}

// TestPredictCarriesEpoch: the per-prediction epoch matches /readyz
// and /metrics — the consistency triangle TestCmdPromoteFailover
// (cmd/viralcast) closes through a router after a failover.
func TestPredictCarriesEpoch(t *testing.T) {
	dir := t.TempDir()
	_, ts := newWALServer(t, dir)
	if code, _ := postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": 9}); code != http.StatusOK {
		t.Fatal("epoch advance failed")
	}
	if code := postEvent(t, ts.URL, 77, 1, 0.1); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	code, pred := getJSON(t, ts.URL+"/v1/cascades/77/predict")
	if code != http.StatusOK || pred["epoch"].(float64) != 9 {
		t.Fatalf("predict epoch: code %d body %v", code, pred)
	}
	_, ready := getJSON(t, ts.URL+"/readyz")
	_, m := getJSON(t, ts.URL+"/metrics")
	if ready["epoch"].(float64) != 9 || m["epoch"].(float64) != 9 {
		t.Fatalf("epoch triangle: predict 9, readyz %v, metrics %v", ready["epoch"], m["epoch"])
	}
}
