package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"unsafe"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/embed"
	"viralcast/internal/eval"
	"viralcast/internal/vecmath"
)

// The early-adopter memo's contract: a live cascade's features are
// extracted once per generation and early prefix, and every answer read
// from the memo is the byte-identical answer core's scalar PredictViral
// gives on the cascade as it stands.

// batchOf posts ids to a cascade batch endpoint and decodes the envelope.
func batchOf(t *testing.T, url string, ids ...int) rawBatchEnvelope {
	t.Helper()
	status, raw := postRaw(t, url, map[string]any{"cascades": ids})
	if status != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", url, status, raw)
	}
	var env rawBatchEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

// predictBatch posts ids to predict:batch, requires cache_hits to be
// hits, and holds every slot to the core oracle.
func predictBatch(t *testing.T, srv *Server, base string, hits int, ids ...int) rawBatchEnvelope {
	t.Helper()
	env := batchOf(t, base+"/v1/predict:batch", ids...)
	if env.CacheHits != hits {
		t.Fatalf("predict:batch %v: cache_hits %d, want %d", ids, env.CacheHits, hits)
	}
	for i, id := range ids {
		want, status, msg := oraclePredict(t, srv, id)
		got := env.Results[i]
		if want == nil {
			if got.Status != status || got.Error != msg {
				t.Fatalf("cascade %d: slot (%d, %q), core oracle (%d, %q)", id, got.Status, got.Error, status, msg)
			}
			continue
		}
		if !bytes.Equal(got.Result, compact(t, want)) {
			t.Fatalf("cascade %d: slot\n%s\n!= core oracle\n%s", id, got.Result, compact(t, want))
		}
	}
	return env
}

// postEvents ingests evs, all of which must be accepted.
func postEvents(t *testing.T, base string, evs ...Event) {
	t.Helper()
	status, body := postJSON(t, base+"/v1/events", map[string]any{"events": evs})
	if status != http.StatusOK || int(body["accepted"].(float64)) != len(evs) {
		t.Fatalf("POST /v1/events = %d, body %v", status, body)
	}
}

// TestPredictBatchAfterStoreClear: a replication follower that
// re-bootstraps clears its store and re-ingests; a cascade that comes
// back with the same id and size but a different history must be
// predicted from the new history, never from the wiped one's answer.
func TestPredictBatchAfterStoreClear(t *testing.T) {
	srv, ts := newTestServer(t)
	const id = 777
	ingestEvents(t, ts.URL, id, 3)
	predictBatch(t, srv, ts.URL, 0, id)
	srv.store.Clear()
	postEvents(t, ts.URL,
		Event{Cascade: id, Node: 20, Time: 0.1},
		Event{Cascade: id, Node: 31, Time: 0.4},
		Event{Cascade: id, Node: 42, Time: 0.9})
	predictBatch(t, srv, ts.URL, 0, id)
}

// TestMemoTracksTheEarlyPrefix: an event past the cutoff leaves the
// features as they were — a hit that carries the new size — while one
// at or before it, even arriving late and landing mid-prefix, changes
// them and forces a recompute.
func TestMemoTracksTheEarlyPrefix(t *testing.T) {
	srv, ts := newTestServer(t)
	const id = 9400
	cutoff := srv.current().sys.Pred.EarlyCutoff()
	ingestEvents(t, ts.URL, id, 4)
	predictBatch(t, srv, ts.URL, 0, id)
	predictBatch(t, srv, ts.URL, 1, id)

	postEvents(t, ts.URL, Event{Cascade: id, Node: 10, Time: cutoff + 1})
	env := predictBatch(t, srv, ts.URL, 1, id)
	var got predictResponse
	if err := json.Unmarshal(env.Results[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Size != 5 {
		t.Fatalf("hit after a post-cutoff event carries size %d, want 5", got.Size)
	}

	for i, tm := range []float64{0.12, cutoff} { // mid-prefix, then exactly at the cutoff
		postEvents(t, ts.URL, Event{Cascade: id, Node: 11 + i, Time: tm})
		predictBatch(t, srv, ts.URL, 0, id)
		predictBatch(t, srv, ts.URL, 1, id)
	}
}

// TestMemoIsPerGeneration: neither a reload nor a flush serves features
// extracted under the previous generation. The flush refines the
// embeddings, so a stale memo would show in the margin, not only in the
// hit count.
func TestMemoIsPerGeneration(t *testing.T) {
	srv, ts := newTestServer(t)
	ids := []int{9500, 9501}
	for i, id := range ids {
		ingestEvents(t, ts.URL, id, 4+i)
	}
	predictBatch(t, srv, ts.URL, 0, ids...)
	predictBatch(t, srv, ts.URL, 2, ids...)
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	predictBatch(t, srv, ts.URL, 0, ids...)
	predictBatch(t, srv, ts.URL, 2, ids...)
	if n, err := srv.Flush(); err != nil || n == 0 {
		t.Fatalf("Flush = (%d, %v), want the two cascades absorbed", n, err)
	}
	predictBatch(t, srv, ts.URL, 0, ids...)
	predictBatch(t, srv, ts.URL, 2, ids...)
}

// shrunkModel is the fixture restricted to its first n nodes: the
// embedding rows below n, and a predictor trained on the fixture's
// cascades with every other node dropped.
func shrunkModel(t *testing.T, n int) *LoadedModel {
	t.Helper()
	sys, cs := fixture(t)
	k := sys.Embeddings.K()
	rows := func(m *vecmath.Matrix) *vecmath.Matrix {
		return &vecmath.Matrix{RowsN: n, ColsN: k, Data: append([]float64(nil), m.Data[:n*k]...)}
	}
	small := core.NewSystem(&embed.Model{A: rows(sys.Embeddings.A), B: rows(sys.Embeddings.B)}, core.TrainConfig{})
	var kept []*cascade.Cascade
	for _, c := range cs {
		cut := &cascade.Cascade{ID: c.ID}
		for _, inf := range c.Infections {
			if inf.Node < n {
				cut.Infections = append(cut.Infections, inf)
			}
		}
		if cut.Size() > 0 {
			kept = append(kept, cut)
		}
	}
	pred, err := small.TrainPredictor(kept, 8*2.0/7.0, eval.TopFractionThreshold(cascade.Sizes(kept), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	return &LoadedModel{Sys: small, Pred: pred}
}

// TestMemoUnderShrunkUniverse: after a reload to a smaller universe, a
// cascade whose memo holds under no generation any more but which
// infected a node past the new universe answers the single endpoint's
// 422, word for word, and one inside it the new model's verdict.
func TestMemoUnderShrunkUniverse(t *testing.T) {
	const small = 100
	shrunk := shrunkModel(t, small)
	full := fixtureLoader(t)
	loads := 0
	srv, err := New(Config{Loader: func() (*LoadedModel, error) {
		if loads++; loads == 1 {
			return full()
		}
		return shrunk, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const inside, outside = 9600, 9601
	ingestEvents(t, ts.URL, inside, 3)
	postEvents(t, ts.URL,
		Event{Cascade: outside, Node: 1, Time: 0.1},
		Event{Cascade: outside, Node: small + 20, Time: 0.2})
	predictBatch(t, srv, ts.URL, 0, inside, outside)
	predictBatch(t, srv, ts.URL, 2, inside, outside)
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	env := batchOf(t, ts.URL+"/v1/predict:batch", inside, outside)
	wantInside, _, _ := oraclePredict(t, srv, inside)
	if env.CacheHits != 0 || !bytes.Equal(env.Results[0].Result, compact(t, wantInside)) {
		t.Fatalf("after the reload: cache_hits %d, slot %s; want 0 and the core oracle's %s",
			env.CacheHits, env.Results[0].Result, compact(t, wantInside))
	}
	status, raw := getRaw(t, ts.URL+"/v1/cascades/"+strconv.Itoa(outside)+"/predict")
	want := "cascade 9601 contains node 120 outside the current model's universe [0,100)"
	if slot := env.Results[1]; status != http.StatusUnprocessableEntity || slot.Status != status ||
		slot.Error != want || !bytes.Equal(raw, canonical(t, map[string]string{"error": want})) {
		t.Fatalf("out-of-universe cascade: slot (%d, %q), single %d %s; want 422 %q",
			slot.Status, slot.Error, status, raw, want)
	}
	predictBatch(t, srv, ts.URL, 1, inside)
}

// TestFeaturesBatchFillsPredictMemo: the two endpoint families share
// one memo, so a features:batch miss is the next predict:batch's hit,
// and the other way round.
func TestFeaturesBatchFillsPredictMemo(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 9700, 5)
	ingestEvents(t, ts.URL, 9701, 6)
	if env := batchOf(t, ts.URL+"/v1/features:batch", 9700); env.CacheHits != 0 {
		t.Fatalf("first features:batch cache_hits %d, want 0", env.CacheHits)
	}
	predictBatch(t, srv, ts.URL, 1, 9700)
	predictBatch(t, srv, ts.URL, 0, 9701)
	env := batchOf(t, ts.URL+"/v1/features:batch", 9701)
	if env.CacheHits != 1 {
		t.Fatalf("features:batch after predict:batch cache_hits %d, want 1", env.CacheHits)
	}
	var got featuresPayload
	if err := json.Unmarshal(env.Results[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	c, _ := srv.store.Snapshot(9701)
	cur := srv.current()
	want, err := cur.sys.Sys.Features(c.Prefix(cur.sys.Pred.EarlyCutoff()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DiverA != want.DiverA || got.NormA != want.NormA || got.MaxA != want.MaxA ||
		got.EarlyCount != want.EarlyCount || got.EarlyRate != want.EarlyRate || got.Size != 6 {
		t.Fatalf("memoized features %+v != direct extraction %+v", got, want)
	}
}

// TestMemoFillAfterEvictLandsNowhere: a fill whose cascade was retired
// (the store cleared) and re-created between the read and the fill must
// plant nothing in the new history — not even under the same
// generation, id and prefix length.
func TestMemoFillAfterEvictLandsNowhere(t *testing.T) {
	const id, n, gen, cutoff = 5, 50, 1, 1.0
	s := NewStore()
	for i, node := range []int{3, 4, 5} {
		if _, err := s.Append(Event{Cascade: id, Node: node, Time: 0.1 * float64(i)}, n); err != nil {
			t.Fatal(err)
		}
	}
	var stale earlyRead
	s.readEarly(id, gen, cutoff, n, &stale, nil)
	if stale.hit || stale.early != 3 {
		t.Fatalf("first read: hit %v, early %d; want a miss on 3", stale.hit, stale.early)
	}
	s.Clear()
	for i, node := range []int{7, 8, 9} {
		if _, err := s.Append(Event{Cascade: id, Node: node, Time: 0.1 * float64(i)}, n); err != nil {
			t.Fatal(err)
		}
	}
	stale.set.DiverA = 42
	s.memoize(id, &stale, gen)
	var fresh earlyRead
	s.readEarly(id, gen, cutoff, n, &fresh, nil)
	if fresh.hit {
		t.Fatalf("the retired history's fill landed in the new one: %+v", fresh.set)
	}
	// The same fill against the read it belongs to does land.
	fresh.set.DiverA = 7
	s.memoize(id, &fresh, gen)
	var again earlyRead
	s.readEarly(id, gen, cutoff, n, &again, nil)
	if !again.hit || again.set.DiverA != 7 {
		t.Fatalf("fill on the live cascade: hit %v, set %+v", again.hit, again.set)
	}
}

// TestLiveCascadeSize: the memo costs a live cascade at most 56 bytes
// over the 64 it had, keeping it inside the 128-byte size class.
func TestLiveCascadeSize(t *testing.T) {
	if size := unsafe.Sizeof(liveCascade{}); size > 120 {
		t.Fatalf("liveCascade is %d bytes, budget 120", size)
	}
}
