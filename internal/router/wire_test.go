// Wire-level checks of the byte-moving router: merged batch envelopes
// are the owning shards' slot bytes spliced in caller order, routed
// acks and rankings are the bytes the reflective writer produced before,
// bodies the scanners refuse earn the strict decoder's answer, and the
// scatter's failure modes (a stalled shard, a shard refusing before it
// has read the request, a garbled reply) degrade exactly the items they
// touch.
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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/httpkit"
)

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// reflective is httpkit.WriteJSON's encoding of v: the bytes every
// routed answer was made of before the hand encoders.
func reflective(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mergedEnvelope is the merged batch answer as the router's reflective
// encoder declared it, slots raw.
type mergedEnvelope struct {
	Results       []json.RawMessage `json:"results"`
	Count         int               `json:"count"`
	Errors        int               `json:"errors"`
	CacheHits     int               `json:"cache_hits"`
	Generation    uint64            `json:"generation"`
	Partial       bool              `json:"partial,omitempty"`
	MissingShards []string          `json:"missing_shards,omitempty"`
}

// decodeMerged decodes a merged envelope and checks its framing: the
// body must be, but for whitespace, what the reflective writer made of
// the same fields in the same order.
func decodeMerged(t *testing.T, body []byte) mergedEnvelope {
	t.Helper()
	var env mergedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("merged envelope: %v\n%s", err, body)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, reflective(t, &env)); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("merged envelope differs from the reflective encoding in more than whitespace:\n%s\nvs\n%s", body, want.Bytes())
	}
	return env
}

// shardSlot asks the shard directly for one cascade and returns its
// slot's bytes.
func shardSlot(t *testing.T, shardURL, path string, id int) []byte {
	t.Helper()
	code, body := postBody(t, shardURL+path, fmt.Sprintf(`{"cascades":[%d]}`, id))
	var env mergedEnvelope
	if err := json.Unmarshal(body, &env); err != nil || code != http.StatusOK || len(env.Results) != 1 {
		t.Fatalf("shard %s for cascade %d = %d, %v: %s", path, id, code, err, body)
	}
	return env.Results[0]
}

// TestRoutedBatchSlotsAreTheOwningShardsBytes: for ring sizes 1/2/3 and
// both cascade-scoped batch endpoints, every slot of the merged envelope
// — interleaved across owners, a missing id mixed in — is byte for byte
// the slot the owning shard answers when asked directly; with a shard
// dead, its items become the router's own 502 slots and only they; with
// a shard refusing its sub-batch, its items carry the shard's status and
// message and nothing is reported missing.
func TestRoutedBatchSlotsAreTheOwningShardsBytes(t *testing.T) {
	ids := []int{100, 201, 302, 403, 504, 605, 706, 807}
	mixed := []int{ids[0], 999999, ids[3], ids[1], ids[6], ids[2], ids[7], ids[4], ids[5]}
	body, _ := json.Marshal(map[string]any{"cascades": mixed})
	for _, path := range []string{"/v1/predict:batch", "/v1/features:batch"} {
		for _, ringSize := range []int{1, 2, 3} {
			f := newFleet(t, ringSize, nil)
			batchIngest(t, f.url(), ids)
			owner := f.router.Ring().Owner
			code, merged := postBody(t, f.url()+path, string(body))
			env := decodeMerged(t, merged)
			if code != http.StatusOK || env.Count != len(mixed) || len(env.Results) != len(mixed) || env.Errors != 1 || env.Partial {
				t.Fatalf("%s shards=%d: %d: %s", path, ringSize, code, merged)
			}
			for i, id := range mixed {
				if want := shardSlot(t, f.shards[owner(id)].URL, path, id); !bytes.Equal(env.Results[i], want) {
					t.Fatalf("%s shards=%d item %d (cascade %d): merged slot\n%s\nowning shard's\n%s", path, ringSize, i, id, env.Results[i], want)
				}
			}
			if ringSize == 1 {
				continue
			}

			dead := owner(ids[0])
			f.shards[dead].Close()
			code, merged = postBody(t, f.url()+path, string(body))
			env = decodeMerged(t, merged)
			if code != http.StatusOK || !env.Partial || len(env.MissingShards) != 1 || env.MissingShards[0] != ShardName(dead) {
				t.Fatalf("%s shards=%d, %s dead: %d: %s", path, ringSize, ShardName(dead), code, merged)
			}
			failed := 0
			for i, id := range mixed {
				if owner(id) != dead {
					if want := shardSlot(t, f.shards[owner(id)].URL, path, id); !bytes.Equal(env.Results[i], want) {
						t.Fatalf("%s shards=%d item %d: live slot changed beside a dead shard:\n%s\n%s", path, ringSize, i, env.Results[i], want)
					}
					if id == 999999 {
						failed++
					}
					continue
				}
				failed++
				var slot routerBatchItem
				if err := json.Unmarshal(env.Results[i], &slot); err != nil || slot.Status != http.StatusBadGateway ||
					!strings.HasPrefix(slot.Error, ShardName(dead)+" did not answer: ") {
					t.Fatalf("%s shards=%d item %d (dead shard): slot %s", path, ringSize, i, env.Results[i])
				}
				if want, _ := json.Marshal(slot); !bytes.Equal(env.Results[i], want) {
					t.Fatalf("router-made slot %s is not the reflective encoding %s", env.Results[i], want)
				}
			}
			if env.Errors != failed {
				t.Fatalf("%s shards=%d: errors = %d, want %d: %s", path, ringSize, env.Errors, failed, merged)
			}
		}
	}

	// A shard handed more than its batch cap of 1024 refuses its share:
	// the mixed batch plus 1025 more cascades that shard-0 owns.
	f := newFleet(t, 3, nil)
	batchIngest(t, f.url(), ids)
	all := slices.Clone(mixed)
	for id := 1000000; len(all) < len(mixed)+1025; id++ {
		if f.router.Ring().Owner(id) == 0 {
			all = append(all, id)
		}
	}
	big, _ := json.Marshal(map[string]any{"cascades": all})
	code, merged := postBody(t, f.url()+"/v1/predict:batch", string(big))
	env := decodeMerged(t, merged)
	if code != http.StatusOK || env.Partial || len(env.MissingShards) != 0 {
		t.Fatalf("refusing shard reported missing: %d", code)
	}
	var share []int
	for _, id := range all {
		if f.router.Ring().Owner(id) == 0 {
			share = append(share, id)
		}
	}
	sub, _ := json.Marshal(map[string]any{"cascades": share})
	_, refusal := postBody(t, f.shards[0].URL+"/v1/predict:batch", string(sub))
	want, _ := json.Marshal(routerBatchItem{Status: http.StatusBadRequest, Error: decodeJSON(t, refusal)["error"].(string)})
	for i, id := range all {
		if f.router.Ring().Owner(id) == 0 {
			if !bytes.Equal(env.Results[i], want) {
				t.Fatalf("item %d of the refused sub-batch: slot %s, want %s", i, env.Results[i], want)
			}
		} else if direct := shardSlot(t, f.shards[f.router.Ring().Owner(id)].URL, "/v1/predict:batch", id); !bytes.Equal(env.Results[i], direct) {
			t.Fatalf("item %d beside a refusing shard: slot %s, owning shard's %s", i, env.Results[i], direct)
		}
	}
}

// TestRoutedAcksAndRankingsMatchReflective: the routed ingest ack and
// the merged ranking are hand-encoded now; they must be the bytes the
// reflective writer gave the same values — "rejected": [] at the router
// where a shard says null, sizes keyed in string order across shards,
// rejections re-indexed into the caller's coordinates — whether the body
// took the span path directly or through the strict decoder.
func TestRoutedAcksAndRankingsMatchReflective(t *testing.T) {
	f := newFleet(t, 3, nil)
	type ack struct {
		Accepted int                   `json:"accepted"`
		Rejected []httpkit.EventReject `json:"rejected"`
		Sizes    map[string]int        `json:"sizes"`
	}
	post := func(body string, accepted, rejected int) {
		t.Helper()
		code, raw := postBody(t, f.url()+"/v1/events", body)
		var got ack
		if err := json.Unmarshal(raw, &got); err != nil || code != http.StatusOK {
			t.Fatalf("routed ingest = %d, %v: %s", code, err, raw)
		}
		if got.Accepted != accepted || got.Rejected == nil || len(got.Rejected) != rejected {
			t.Fatalf("routed ingest accepted %d rejected %v, want %d and %d: %s", got.Accepted, got.Rejected, accepted, rejected, raw)
		}
		if want := reflective(t, map[string]any{"accepted": got.Accepted, "rejected": got.Rejected, "sizes": got.Sizes}); !bytes.Equal(raw, want) {
			t.Fatalf("routed ack\n%s\nreflective writer\n%s", raw, want)
		}
	}
	var evs []string
	for i, id := range []int{9, 10, 100, 1009, 9, 11, 99} {
		evs = append(evs, fmt.Sprintf(`{"cascade":%d,"node":%d,"time":%g}`, id, i, 0.05*float64(i+1)))
	}
	post(`{"events":[`+strings.Join(evs, ",")+`]}`, 7, 0)
	// A duplicate (rejected by its shard at sub-batch index 0, reported
	// at the caller's index 2) between two fresh events, on the span path
	// and again — the fresh ones now duplicates too — through the strict
	// decoder (reordered keys, a capitalised one).
	post(`{"events":[{"cascade":10,"node":40,"time":0.9},{"cascade":100,"node":41,"time":0.9},{"cascade":9,"node":0,"time":0.9}]}`, 2, 1)
	post(`{"events":[{"node":40,"cascade":10,"time":0.9},{"cascade":100,"Node":41,"time":0.9},{"cascade":9,"node":0,"time":0.9},{"time":0.95,"cascade":9,"node":42}]}`, 1, 3)
	post(` {"cascade": 9, "node": 43, "time": 1} `, 1, 0) // the bare event
	for _, id := range []int{9, 10, 100} {
		code, raw := getRaw(t, fmt.Sprintf("%s/v1/cascades/%d", f.url(), id))
		if want := map[int]float64{9: 4, 10: 2, 100: 2}[id]; code != http.StatusOK || decodeJSON(t, raw)["size"] != want {
			t.Fatalf("cascade %d after routed ingest: %d %s, want size %v", id, code, raw, want)
		}
	}

	oracle := newOracle(t)
	for _, k := range []int{1, 7, 1000} {
		for _, cached := range []bool{false, true} {
			code, raw := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", f.url(), k))
			_, direct := getRaw(t, fmt.Sprintf("%s/v1/influencers?k=%d", oracle.URL, k))
			var got influencersResponse
			if err := json.Unmarshal(raw, &got); err != nil || code != http.StatusOK || got.Cached != cached {
				t.Fatalf("routed influencers k=%d = %d, %v: %s", k, code, err, raw)
			}
			if want := reflective(t, &got); !bytes.Equal(raw, want) {
				t.Fatalf("routed ranking\n%s\nreflective writer\n%s", raw, want)
			}
			if !bytes.Equal(raw, direct) { // same generation, same cached flag: the daemon's answer, whole
				t.Fatalf("routed ranking k=%d differs from one daemon's:\n%s\n%s", k, raw, direct)
			}
		}
	}
}

// TestRoutedNonCanonicalBodies: the router mirrors the daemon's strict
// body contract on what its scanners hand back — same status, same
// message, trailing bytes refused.
func TestRoutedNonCanonicalBodies(t *testing.T) {
	f := newFleet(t, 2, nil)
	batchIngest(t, f.url(), []int{31})
	const (
		eventsMsg   = `body must be {"events": [...]} or a single {cascade, node, time} object`
		cascadesMsg = `body must be {"cascades": [id, ...]}`
	)
	for _, tc := range []struct {
		path, body string
		status     int
		msg        string
	}{
		{"/v1/events", `{"Events":[{"Cascade":40,"NODE":8,"time":5e-1}]}`, 200, ""},
		{"/v1/events", "\n{ \"events\" : [ { \"cascade\" : 40 , \"node\" : 10 , \"time\" : 0.5 } ] }\n", 200, ""},
		{"/v1/events", `{"events":[{"cascade":40.0,"node":11,"time":0.5}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":1e999}]}`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":0.5}]} trailing garbage {`, 400, eventsMsg},
		{"/v1/events", `{"events":[{"cascade":40,"node":11,"time":0.5}]}{"events":[]}`, 400, eventsMsg},
		{"/v1/events", `{"cascade":40,"node":11,"time":0.5} x`, 400, eventsMsg},
		{"/v1/events", `{"events":[]}`, 400, "empty event batch"},
		{"/v1/predict:batch", `{"Cascades":[31]}`, 200, ""},
		{"/v1/predict:batch", " { \"cascades\" : [ 31 , 32 ] } ", 200, ""},
		{"/v1/predict:batch", `{"cascades":[31.0]}`, 400, cascadesMsg},
		{"/v1/predict:batch", `{"cascades":[1e2]}`, 400, cascadesMsg},
		{"/v1/predict:batch", `{"cascades":[31]} trailing garbage {`, 400, cascadesMsg},
		{"/v1/features:batch", `{"cascades":[31]}{"cascades":[32]}`, 400, cascadesMsg},
		{"/v1/features:batch", `{"cascades":[]}`, 400, "empty cascade batch"},
		// rate:batch relays whole: the shard's own contract answers.
		{"/v1/rate:batch", `{"pairs":[{"u":1,"v":2}]} x`, 400, `body must be {"pairs": [{"u": ..., "v": ...}, ...]}`},
		{"/v1/rate:batch", `{"pairs":[{"u":1,"v":2}]}{"pairs":[]}`, 400, `body must be {"pairs": [{"u": ..., "v": ...}, ...]}`},
	} {
		code, raw := postBody(t, f.url()+tc.path, tc.body)
		if code != tc.status {
			t.Fatalf("POST %s %q = %d, want %d: %s", tc.path, tc.body, code, tc.status, raw)
		}
		if want := reflective(t, map[string]string{"error": tc.msg}); tc.status == 400 && !bytes.Equal(raw, want) {
			t.Fatalf("POST %s %q answered\n%s\nwant\n%s", tc.path, tc.body, raw, want)
		}
	}
}

// TestRelayCarriesRetryAfter: a shard shedding load answers 429 with
// Retry-After (serve.admit); the header is part of the answer and must
// survive both relay paths — the ring-owner proxy and the replicated
// relay — or the client learns it is surplus but not for how long.
func TestRelayCarriesRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // a test shard
		w.Header().Set("Retry-After", "7")
		httpkit.WriteJSON(w, http.StatusTooManyRequests, map[string]any{"reason": "overload", "retry_after_seconds": 7})
	}))
	defer shedding.Close()
	rt, err := New(Config{Shards: []Shard{{Primary: shedding.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for _, req := range []struct{ method, path, body string }{
		{"GET", "/v1/cascades/5/predict", ""}, // proxyCascade
		{"GET", "/v1/cascades/5", ""},
		{"GET", "/v1/rate?u=1&v=2", ""}, // relayReplicated
		{"GET", "/v1/seeds?k=3", ""},
		{"POST", "/v1/rate:batch", `{"pairs":[{"u":1,"v":2}]}`},
		{"POST", "/v1/simulate", `{}`},
	} {
		hr, _ := http.NewRequest(req.method, front.URL+req.path, strings.NewReader(req.body))
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" || decodeJSON(t, raw)["reason"] != "overload" {
			t.Fatalf("%s %s through the router = %d, Retry-After %q: %s", req.method, req.path, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
		}
	}
}

// stallOn makes shard `which` sit on requests to path until released.
func stallOn(which int, path string, release <-chan struct{}) func(int, http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		if i != which {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == path {
				io.Copy(io.Discard, r.Body) //nolint:errcheck // a test shard
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestRoutedIngestHonoursTheShardBudget: ingest scatters under the same
// reserve-trimmed deadline as every other scattered endpoint, so a shard
// that stalls past it costs the request a partial answer *within*
// RequestTimeout — naming the shard, the healthy shards' events accepted
// — not a late one.
func TestRoutedIngestHonoursTheShardBudget(t *testing.T) {
	const budget = time.Second
	release := make(chan struct{})
	f := buildFleet(t, 3, fleetSpec{
		wrap:   stallOn(1, "/v1/events", release),
		router: func(c *Config) { c.RequestTimeout = budget },
	})
	defer close(release) // before the servers' Close waits on the stalled handler
	var evs []string
	stalled := 0
	for i := 0; i < 12; i++ {
		evs = append(evs, fmt.Sprintf(`{"cascade":%d,"node":1,"time":0.1}`, 300+i))
		if f.router.Ring().Owner(300+i) == 1 {
			stalled++
		}
	}
	if stalled == 0 || stalled == len(evs) {
		t.Fatalf("%d of %d events on the stalled shard: pick other ids", stalled, len(evs))
	}
	start := time.Now()
	code, raw := postBody(t, f.url()+"/v1/events", `{"events":[`+strings.Join(evs, ",")+`]}`)
	elapsed := time.Since(start)
	ack := decodeJSON(t, raw)
	if code != http.StatusOK || ack["partial"] != true || fmt.Sprint(ack["missing_shards"]) != "[shard-1]" {
		t.Fatalf("ingest beside a stalled shard = %d: %s", code, raw)
	}
	if ack["accepted"] != float64(len(evs)-stalled) || len(ack["rejected"].([]any)) != stalled {
		t.Fatalf("accepted %v rejected %v, want %d and %d: %s", ack["accepted"], ack["rejected"], len(evs)-stalled, stalled, raw)
	}
	if elapsed >= budget {
		t.Fatalf("the partial took %v: the stalled shard ate the whole %v budget", elapsed, budget)
	}
}

// TestScatterBodiesSurviveEarlyRefusal: a shard may answer before it has
// read its sub-request through, and the RoundTripper contract lets
// net/http keep writing that body after the exchange has returned and
// the handler has moved on. Sub-request bodies therefore never come from
// the pooled workspace. The shard here refuses first and reads
// afterwards, while other requests — each padded with its own kind of
// whitespace — churn through the pool: what it reads must be one
// request's bytes, never patched with another's. Run under -race too,
// though the detector is half blind here (the runtime orders every write
// syscall before every later read syscall), which is why the shard
// checks content.
func TestScatterBodiesSurviveEarlyRefusal(t *testing.T) {
	f := buildFleet(t, 1, fleetSpec{wrap: func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rc := http.NewResponseController(w)
			if err := rc.EnableFullDuplex(); err != nil {
				t.Error(err)
			}
			httpkit.WriteError(w, http.StatusBadRequest, "refused unread")
			rc.Flush()                        //nolint:errcheck // the read below is the point
			time.Sleep(10 * time.Millisecond) // the router answers and recycles its workspace
			body, _ := io.ReadAll(r.Body)     // cut short when the router's transport gives up on it: still one request's bytes
			kinds := 0
			for _, space := range []byte(" \t\n\r") {
				if bytes.IndexByte(body, space) >= 0 {
					kinds++
				}
			}
			if kinds != 1 {
				t.Errorf("sub-request of %d bytes carries %d kinds of padding: another request's bytes in its body", len(body), kinds)
			}
		})
	}})
	// A sub-request past what the socket buffers unread — the send buffer
	// is cut down to make sure — so the write loop is still busy when the
	// 400 arrives, yet small enough that the workspace it was cut from
	// goes back to the pool. It is made of few events (the answer stays
	// small) whose objects carry their padding with them: the scanner
	// admits whitespace between tokens and a span is the caller's bytes.
	f.router.client.hc.Transport.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := new(net.Dialer).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4 << 10) //nolint:errcheck // best effort: the default only makes the test weaker
		}
		return c, err
	}
	var wg sync.WaitGroup
	for w, space := range []string{" ", "\t", "\n", "\r"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var evs []string
			for i := 0; i < 5; i++ {
				evs = append(evs, fmt.Sprintf(`{"cascade":%d,%s"node":1,"time":0.5}`, 500+10*w+i, strings.Repeat(space, 100<<10)))
			}
			body := `{"events":[` + strings.Join(evs, ",") + `]}`
			for i := 0; i < 8; i++ {
				code, raw := postBody(t, f.url()+"/v1/events", body)
				if code != http.StatusOK || !bytes.Contains(raw, []byte(`"accepted": 0`)) || !bytes.Contains(raw, []byte("refused unread")) {
					t.Errorf("ingest against a refusing shard = %d: %.300s", code, raw)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGarbledShardReplyDegradesOnlyItsItems: a 200 that is not a batch
// envelope — truncated, not JSON, well-formed but short — costs exactly
// that shard's items a 502 slot; every other slot stands.
func TestGarbledShardReplyDegradesOnlyItsItems(t *testing.T) {
	ids := []int{100, 201, 302, 403, 504, 605, 706, 807}
	for name, garbled := range map[string]string{
		"truncated": `{"results":[{"result":{"cascade":100`,
		"not JSON":  `<html>gateway</html>`,
		"short":     `{"results":[],"count":0,"errors":0,"cache_hits":0,"generation":1,"shard_id":1,"epoch":0}`,
		"reordered": `{"count":0,"results":[],"errors":0,"cache_hits":0,"generation":1,"shard_id":1,"epoch":0}`,
	} {
		f := buildFleet(t, 3, fleetSpec{wrap: func(i int, h http.Handler) http.Handler {
			if i != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/predict:batch" {
					h.ServeHTTP(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, garbled) //nolint:errcheck // a test shard
			})
		}})
		batchIngest(t, f.url(), ids)
		code, merged := postRaw(t, f.url()+"/v1/predict:batch", map[string]any{"cascades": ids})
		env := decodeMerged(t, merged)
		if code != http.StatusOK || !env.Partial || fmt.Sprint(env.MissingShards) != "[shard-1]" {
			t.Fatalf("%s reply: %d: %s", name, code, merged)
		}
		for i, id := range ids {
			var slot routerBatchItem
			if err := json.Unmarshal(env.Results[i], &slot); err != nil {
				t.Fatal(err)
			}
			if garbledOwner := f.router.Ring().Owner(id) == 1; garbledOwner != (slot.Status == http.StatusBadGateway) {
				t.Fatalf("%s reply, item %d (cascade %d, owner shard-%d): slot %s", name, i, id, f.router.Ring().Owner(id), env.Results[i])
			}
		}
	}
}

// TestNonCanonicalShardReplyStillMerges: a valid shard envelope the
// splitter refuses — keys reordered, re-indented — is decoded
// reflectively, as every envelope was before the splitter, and merges to
// the same slots and tallies; nothing degrades.
func TestNonCanonicalShardReplyStillMerges(t *testing.T) {
	ids := []int{100, 201, 302, 403, 504, 605, 706, 807, 999999}
	var reorder atomic.Bool
	f := buildFleet(t, 3, fleetSpec{wrap: func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i != 1 || r.URL.Path != "/v1/predict:batch" || !reorder.Load() {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var env struct {
				Epoch      uint64            `json:"epoch"`
				Count      int               `json:"count"`
				Results    []json.RawMessage `json:"results"`
				Generation uint64            `json:"generation"`
				CacheHits  int               `json:"cache_hits"`
				Errors     int               `json:"errors"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Error(err)
			}
			w.Write(reflective(t, &env)) //nolint:errcheck // a test shard
		})
	}})
	batchIngest(t, f.url(), ids[:8])
	body, _ := json.Marshal(map[string]any{"cascades": ids})
	_, plain := postBody(t, f.url()+"/v1/predict:batch", string(body))
	reorder.Store(true)
	code, merged := postBody(t, f.url()+"/v1/predict:batch", string(body))
	want, got := decodeMerged(t, plain), decodeMerged(t, merged)
	if code != http.StatusOK || got.Partial || got.Errors != want.Errors || got.Generation != want.Generation ||
		want.CacheHits != 0 || got.CacheHits != len(ids)-want.Errors {
		t.Fatalf("reordered shard envelope: %d: %s\nplain: %s", code, merged, plain)
	}
	for i := range ids {
		if !bytes.Equal(got.Results[i], want.Results[i]) {
			t.Fatalf("item %d: slot %s, want %s", i, got.Results[i], want.Results[i])
		}
	}
}
