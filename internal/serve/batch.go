package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/features"
	"viralcast/internal/httpkit"
)

// One item pipeline. Every cascade-scoped data-plane answer — GET
// /v1/cascades/{id}/predict, POST /v1/predict:batch, POST
// /v1/features:batch — comes out of cascadePipeline.run: resolve ids →
// one store read per item (size, universe check, early-adopter memo) →
// one blocked extraction over the memo misses → (predict) one blocked
// classification → slots. The paper's verdict is a linear SVM over the
// features of a cascade's early adopters, so those are extracted once
// per generation and kept beside the cascade (Store.readEarly argues
// exactness); both endpoint families share them. A batch serves up to
// batchMax items through ONE admission ticket, ONE deadline, ONE
// generation pin and ONE pooled workspace, and a per-item failure fills
// its own slot (status + message) without failing the batch. The single
// endpoint is the same pipeline over one id, its slot unwrapped into a
// plain response, so a batch slot and a single answer cannot disagree.
// The independent oracle the tests hold both against is core's scalar
// Predictor.PredictViral.

// batchItem is one slot of a batch answer: exactly one of Result or
// Error is set. Status carries the HTTP code the single endpoint
// answers for the same item.
type batchItem[R any] struct {
	Result *R     `json:"result,omitempty"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// writeItem answers a single-item endpoint from its slot: the result
// as an ordinary indented body, or the slot's status and message as an
// ordinary error.
func writeItem[R any](w http.ResponseWriter, it batchItem[R]) {
	if it.Result == nil {
		httpkit.WriteError(w, it.Status, "%s", it.Error)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, it.Result)
}

// batchResponse is the envelope of the cascade-scoped batch endpoints.
type batchResponse[R any] struct {
	Results []batchItem[R] `json:"results"`
	Count   int            `json:"count"`
	Errors  int            `json:"errors"`
	// CacheHits counts items whose early-adopter features were read from
	// the live cascade's memo instead of extracted (deterministic per
	// generation and early prefix, so a hit is byte-identical to a
	// recompute).
	CacheHits  int    `json:"cache_hits"`
	Generation uint64 `json:"generation"`
	ShardID    int    `json:"shard_id"`
	Epoch      uint64 `json:"epoch"`
}

// featuresPayload is one cascade's extracted feature set, the batch
// analogue of the model's diagnostic surface.
type featuresPayload struct {
	Cascade     int     `json:"cascade"`
	DiverA      float64 `json:"diverA"`
	NormA       float64 `json:"normA"`
	MaxA        float64 `json:"maxA"`
	EarlyCount  float64 `json:"earlyCount"`
	EarlyRate   float64 `json:"earlyRate"`
	Size        int     `json:"size"`
	EarlyCutoff float64 `json:"early_cutoff"`
	Generation  uint64  `json:"generation"`
}

// cascadePipeline is what distinguishes one cascade-scoped endpoint
// family from another: R is the per-item payload.
type cascadePipeline[R any] struct {
	classify bool // run the classifier over every item's features
	// build fills out with one item's payload from its features and (when
	// classify) verdict, or reports the item's own failure (a 422 slot).
	build func(s *Server, cur *model, id, size int, set *features.Set, v *core.BatchResult, out *R) error
	// result appends one payload as encoding/json would (see
	// appendBatchJSON).
	result func(b []byte, r *R, ec *floatMemo) ([]byte, bool)
	pool   sync.Pool // of *cascadeWorkspace[R]
}

var predictPipeline = &cascadePipeline[predictResponse]{
	classify: true,
	build: func(s *Server, cur *model, id, size int, _ *features.Set, v *core.BatchResult, out *predictResponse) error {
		*out = predictResponse{
			Cascade:     id,
			Viral:       v.Viral,
			Margin:      v.Margin,
			Size:        size,
			EarlyCutoff: cur.sys.Pred.EarlyCutoff(),
			Threshold:   cur.sys.Pred.Threshold(),
			Generation:  cur.gen,
			ShardID:     s.ShardID(),
			Epoch:       s.Epoch(),
		}
		return v.Err
	},
	result: appendPredictJSON,
	pool:   sync.Pool{New: func() any { return new(cascadeWorkspace[predictResponse]) }},
}

// featuresPipeline serves the early-adopter feature sets — the model's
// diagnostic surface, batched the same way predictions are (same
// checks, same per-item contract, same memo).
var featuresPipeline = &cascadePipeline[featuresPayload]{
	build: func(s *Server, cur *model, id, size int, set *features.Set, _ *core.BatchResult, out *featuresPayload) error {
		*out = featuresPayload{
			Cascade:     id,
			DiverA:      set.DiverA,
			NormA:       set.NormA,
			MaxA:        set.MaxA,
			EarlyCount:  set.EarlyCount,
			EarlyRate:   set.EarlyRate,
			Size:        size,
			EarlyCutoff: cur.sys.Pred.EarlyCutoff(),
			Generation:  cur.gen,
		}
		return nil
	},
	result: appendFeaturesJSON,
	pool:   sync.Pool{New: func() any { return new(cascadeWorkspace[featuresPayload]) }},
}

// cascadeWorkspace is one request's reusable scratch: ids, each item's
// store read (and the arena a miss's early prefix is copied into), the
// compacted extraction list and its results, and per item its features,
// verdict, payload and slot. The response is written out before the
// workspace returns to the pool, so nothing escapes a request.
type cascadeWorkspace[R any] struct {
	ids      []int
	body     []byte
	reads    []earlyRead
	arena    []cascade.Infection
	compute  []*cascade.Cascade
	computed []core.FeatureResult
	sets     []features.Set
	verdicts []core.BatchResult
	payloads []R
	items    []batchItem[R]
}

// grow readies the workspace for n items.
func (ws *cascadeWorkspace[R]) grow(n int) {
	ws.reads, ws.arena = zeroed(ws.reads, n), ws.arena[:0]
	ws.items = zeroed(ws.items, n)
	ws.compute = ws.compute[:0]
}

// release returns ws to the pool, minus an arena that a request over
// giant cascades grew past the response-buffer retention cap.
func (p *cascadePipeline[R]) release(ws *cascadeWorkspace[R]) {
	if cap(ws.arena) > httpkit.MaxPooledResponseBuf/16 {
		ws.arena = nil
	}
	p.pool.Put(ws)
}

// zeroed returns s resized to n zero values, reusing its array when it
// is big enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run is the item pipeline over ws.ids. A false return means run
// already answered the request (no predictor, exhausted budget).
func (p *cascadePipeline[R]) run(s *Server, w http.ResponseWriter, r *http.Request, ws *cascadeWorkspace[R]) (batchResponse[R], bool) {
	cur := s.current()
	pred := cur.sys.Pred
	if pred == nil {
		httpkit.WriteError(w, http.StatusServiceUnavailable,
			"no predictor configured (start the daemon with training cascades)")
		return batchResponse[R]{}, false
	}
	ids := ws.ids
	ws.grow(len(ids))
	items, reads := ws.items, ws.reads
	errors, hits := 0, 0
	fail := func(i, status int, msg string) {
		items[i] = batchItem[R]{Status: status, Error: msg}
		errors++
	}

	gen, cutoff, n := cur.gen, pred.EarlyCutoff(), cur.sys.Sys.N
	for i, id := range ids {
		rd := &reads[i]
		ws.arena = s.store.readEarly(id, gen, cutoff, n, rd, ws.arena)
		switch {
		case rd.lc == nil:
			fail(i, http.StatusNotFound, "no live cascade "+strconv.Itoa(id))
		case rd.maxNode >= n:
			fail(i, http.StatusUnprocessableEntity,
				"cascade "+strconv.Itoa(id)+" contains node "+strconv.Itoa(rd.maxNode)+
					" outside the current model's universe [0,"+strconv.Itoa(n)+")")
		case rd.hit:
			hits++
		default:
			ws.compute = append(ws.compute, &rd.snap)
		}
	}
	if err := r.Context().Err(); err != nil {
		s.writeBudgetExhausted(w, err)
		return batchResponse[R]{}, false
	}

	// One blocked extraction over every miss, each success filling its
	// cascade's memo (an error slot never does), then one blocked
	// classification over every slot: a failed one classifies a zero set,
	// garbage its error masks. The payloads are pooled with the rest,
	// since nothing outlives the request.
	ws.computed = zeroed(ws.computed, len(ws.compute))
	pred.FeaturesBatch(ws.compute, ws.computed)
	ws.sets = zeroed(ws.sets, len(ids))
	for i, j := 0, 0; i < len(ids); i++ {
		rd := &reads[i]
		if items[i].Status == 0 && !rd.hit {
			if res := &ws.computed[j]; res.Err != nil {
				fail(i, http.StatusUnprocessableEntity, res.Err.Error())
			} else {
				rd.set = res.Set
				s.store.memoize(ids[i], rd, gen)
			}
			j++
		}
		ws.sets[i] = rd.set
	}
	ws.verdicts = zeroed(ws.verdicts, len(ids))
	if p.classify {
		pred.ClassifyBatch(ws.sets, ws.verdicts)
	}
	ws.payloads = zeroed(ws.payloads, len(ids))
	for i, id := range ids {
		if items[i].Status != 0 {
			continue
		}
		if err := p.build(s, cur, id, reads[i].size, &ws.sets[i], &ws.verdicts[i], &ws.payloads[i]); err != nil {
			fail(i, http.StatusUnprocessableEntity, err.Error())
			continue
		}
		items[i].Result = &ws.payloads[i]
	}
	return batchResponse[R]{
		Results:    items,
		Count:      len(ids),
		Errors:     errors,
		CacheHits:  hits,
		Generation: cur.gen,
		ShardID:    s.ShardID(),
		Epoch:      s.Epoch(),
	}, true
}

// handleBatch is the pipeline's POST …:batch endpoint. It alone counts
// memo hits and misses; the single endpoint never has.
func (p *cascadePipeline[R]) handleBatch(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ws := p.pool.Get().(*cascadeWorkspace[R])
		defer p.release(ws)
		if !p.decodeIDs(s, w, r, ws) {
			return
		}
		if env, ok := p.run(s, w, r, ws); ok {
			s.metrics.cacheHits.Add(int64(env.CacheHits))
			s.metrics.cacheMiss.Add(int64(len(ws.compute)))
			httpkit.WriteEncoded(w, http.StatusOK, &env, false, func(b []byte) ([]byte, bool) {
				return appendBatchJSON(b, &env, p.result)
			})
		}
	}
}

// handlePredict answers the paper's core online question — given what
// this live cascade has done so far, will it go viral? — as a batch of
// one.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	id, err := pathCascadeID(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ws := predictPipeline.pool.Get().(*cascadeWorkspace[predictResponse])
	defer predictPipeline.release(ws)
	ws.ids = append(ws.ids[:0], id)
	if env, ok := predictPipeline.run(s, w, r, ws); ok {
		writeItem(w, env.Results[0])
	}
}

// decodeIDs reads and validates a {"cascades": [...]} body against the
// batch cap, parsing into the workspace's reusable id slice (the shared
// scanner on the canonical encoding, the strict reflective decode on
// anything else). A false return means the error response was written.
func (p *cascadePipeline[R]) decodeIDs(s *Server, w http.ResponseWriter, r *http.Request, ws *cascadeWorkspace[R]) bool {
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, ws.body)
	if !ok {
		return false
	}
	ws.body = body
	var err error
	if ws.ids, err = httpkit.DecodeCascades(body, ws.ids); err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return s.admitBatch(w, len(ws.ids), "cascade")
}

// admitBatch enforces the request-level size contract every batch
// endpoint shares: only an empty batch or one over batchMax fails the
// request; everything else fails at most its own slot.
func (s *Server) admitBatch(w http.ResponseWriter, n int, noun string) bool {
	if n == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "empty %s batch", noun)
		return false
	}
	if n > batchMax {
		httpkit.WriteError(w, http.StatusBadRequest,
			"batch of %d %ss exceeds the daemon's limit %d; split the request",
			n, noun, batchMax)
		return false
	}
	return true
}

// The batch envelopes are encoded by hand: at batch 256 the reflective
// encoding/json walk costs more than all the predictions in the envelope
// combined. The output is byte-identical to encoding/json's compact
// form (httpkit's wire vocabulary; a differential test and a fuzz target
// per encoder), and ok=false on a non-finite float sends the handler to
// the reflective writer, which fails the request as the single path would.

// floatMemo renders a float that repeats down a batch once. Every
// success slot of one envelope shares the generation pin, hence
// EarlyCutoff, and the shortest-round-trip search is the most expensive
// field of a slot; comparing bits keeps the memo exact (0 and -0 render
// differently) even if that invariant ever broke.
type floatMemo struct {
	bits uint64
	text []byte
	buf  [32]byte
}

func (m *floatMemo) append(b []byte, ok *bool, key string, f float64) []byte {
	if bits := math.Float64bits(f); m.text == nil || bits != m.bits {
		var fine bool
		m.bits = bits
		m.text, fine = httpkit.AppendFloatJSON(m.buf[:0], f)
		*ok = *ok && fine
	}
	return append(append(b, key...), m.text...)
}

// appendFloat appends key and f as encoding/json would, folding a
// refusal into ok: the caller discards the buffer then, so it just
// carries on.
func appendFloat(b []byte, ok *bool, key string, f float64) []byte {
	b, fine := httpkit.AppendFloatJSON(append(b, key...), f)
	*ok = *ok && fine
	return b
}

func appendPredictJSON(b []byte, r *predictResponse, ec *floatMemo) ([]byte, bool) {
	ok := true
	b = append(b, `{"cascade":`...)
	b = strconv.AppendInt(b, int64(r.Cascade), 10)
	b = append(b, `,"viral":`...)
	b = strconv.AppendBool(b, r.Viral)
	b = appendFloat(b, &ok, `,"margin":`, r.Margin)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(r.Size), 10)
	b = ec.append(b, &ok, `,"early_cutoff":`, r.EarlyCutoff)
	b = append(b, `,"threshold":`...)
	b = strconv.AppendInt(b, int64(r.Threshold), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	b = append(b, `,"shard_id":`...)
	b = strconv.AppendInt(b, int64(r.ShardID), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, '}'), ok
}

func appendFeaturesJSON(b []byte, r *featuresPayload, ec *floatMemo) ([]byte, bool) {
	ok := true
	b = append(b, `{"cascade":`...)
	b = strconv.AppendInt(b, int64(r.Cascade), 10)
	b = appendFloat(b, &ok, `,"diverA":`, r.DiverA)
	b = appendFloat(b, &ok, `,"normA":`, r.NormA)
	b = appendFloat(b, &ok, `,"maxA":`, r.MaxA)
	b = appendFloat(b, &ok, `,"earlyCount":`, r.EarlyCount)
	b = appendFloat(b, &ok, `,"earlyRate":`, r.EarlyRate)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(r.Size), 10)
	b = ec.append(b, &ok, `,"early_cutoff":`, r.EarlyCutoff)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, '}'), ok
}

func appendRateJSON(b []byte, r *rateResponse, _ *floatMemo) ([]byte, bool) {
	ok := true
	b = append(b, `{"u":`...)
	b = strconv.AppendInt(b, int64(r.U), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(r.V), 10)
	b = appendFloat(b, &ok, `,"rate":`, r.Rate)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, '}'), ok
}

// appendResults renders {"results":[slot,…],"count":n,"errors":n — the
// part of an envelope every batch endpoint shares. A slot is batchItem
// under its omitempty tags: {"result":<payload>}, payloads through
// result, or {"status":n,"error":"…"}.
func appendResults[R any](b []byte, items []batchItem[R], count, errors int, result func([]byte, *R, *floatMemo) ([]byte, bool)) ([]byte, bool) {
	var ec floatMemo
	ok := true
	b = append(b, `{"results":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		it, sep := &items[i], "{"
		if it.Result != nil {
			var fine bool
			b, fine = result(append(b, `{"result":`...), it.Result, &ec)
			ok, sep = ok && fine, ","
		}
		if it.Status != 0 {
			b = append(append(b, sep...), `"status":`...)
			b, sep = strconv.AppendInt(b, int64(it.Status), 10), ","
		}
		if it.Error != "" {
			b = append(append(b, sep...), `"error":`...)
			b, sep = httpkit.AppendStringJSON(b, it.Error), ","
		}
		if sep == "{" {
			b = append(b, '{')
		}
		b = append(b, '}')
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"errors":`...)
	return strconv.AppendInt(b, int64(errors), 10), ok
}

// appendBatchJSON renders a cascade-scoped batch envelope as compact
// encoding/json would.
func appendBatchJSON[R any](b []byte, env *batchResponse[R], result func([]byte, *R, *floatMemo) ([]byte, bool)) ([]byte, bool) {
	b, ok := appendResults(b, env.Results, env.Count, env.Errors, result)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(env.CacheHits), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, env.Generation, 10)
	b = append(b, `,"shard_id":`...)
	b = strconv.AppendInt(b, int64(env.ShardID), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, env.Epoch, 10)
	// json.Encoder terminates every value with a newline; match it.
	return append(b, '}', '\n'), ok
}

type rateBatchResponse struct {
	Results    []batchItem[rateResponse] `json:"results"`
	Count      int                       `json:"count"`
	Errors     int                       `json:"errors"`
	Generation uint64                    `json:"generation"`
}

func appendRateBatchJSON(b []byte, env *rateBatchResponse) ([]byte, bool) {
	b, ok := appendResults(b, env.Results, env.Count, env.Errors, appendRateJSON)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, env.Generation, 10)
	return append(b, '}', '\n'), ok
}

// rateItem is the one per-pair validate + lookup behind GET /v1/rate
// and every rate:batch slot: the inferred hazard rate of u infecting v
// under the pinned generation, written to out, or the 400 the pair
// earns.
func rateItem(cur *model, u, v int, out *rateResponse) batchItem[rateResponse] {
	n := cur.sys.Sys.N
	switch {
	case u < 0 || v < 0:
		return batchItem[rateResponse]{Status: http.StatusBadRequest,
			Error: "parameters u and v must be non-negative integers"}
	case u >= n || v >= n:
		return batchItem[rateResponse]{Status: http.StatusBadRequest,
			Error: "nodes must be in [0," + strconv.Itoa(n) + ")"}
	}
	*out = rateResponse{U: u, V: v, Rate: cur.sys.Sys.Rate(u, v), Generation: cur.gen}
	return batchItem[rateResponse]{Result: out}
}

// handleRate reports the inferred hazard rate of u infecting v. An
// unparseable parameter is the same client error as a negative one.
func (s *Server) handleRate(w http.ResponseWriter, r *http.Request) {
	u, errU := httpkit.QueryInt(r, "u", -1)
	v, errV := httpkit.QueryInt(r, "v", -1)
	if errU != nil || errV != nil {
		u = -1
	}
	writeItem(w, rateItem(s.current(), u, v, new(rateResponse)))
}

// rateWorkspace is one rate:batch request's reusable scratch. Nothing
// of it outlives the request — rates are not cached — so the payload
// slab is pooled with the rest.
type rateWorkspace struct {
	body  []byte
	pairs [][2]int
	items []batchItem[rateResponse]
	slab  []rateResponse
}

var ratePool = sync.Pool{New: func() any { return new(rateWorkspace) }}

// handleRateBatch answers a batch of pairwise hazard-rate lookups. No
// cache — a rate is one K-length dot product, cheaper than a cache
// probe — but the batch still amortizes admission, deadline, and JSON
// overhead.
func (s *Server) handleRateBatch(w http.ResponseWriter, r *http.Request) {
	ws := ratePool.Get().(*rateWorkspace)
	defer ratePool.Put(ws)
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, ws.body)
	if !ok {
		return
	}
	ws.body = body
	if ws.pairs, ok = httpkit.ScanPairs(body, ws.pairs[:0]); !ok {
		var req struct {
			Pairs []struct{ U, V int } `json:"pairs"`
		}
		if err := httpkit.DecodeStrict(body, &req); err != nil || req.Pairs == nil {
			httpkit.WriteError(w, http.StatusBadRequest, "body must be {\"pairs\": [{\"u\": ..., \"v\": ...}, ...]}")
			return
		}
		ws.pairs = ws.pairs[:0]
		for _, p := range req.Pairs {
			ws.pairs = append(ws.pairs, [2]int{p.U, p.V})
		}
	}
	n := len(ws.pairs)
	if !s.admitBatch(w, n, "pair") {
		return
	}
	cur := s.current()
	ws.items, ws.slab = zeroed(ws.items, n), zeroed(ws.slab, n)
	resp := rateBatchResponse{Results: ws.items, Count: n, Generation: cur.gen}
	for i, p := range ws.pairs {
		ws.items[i] = rateItem(cur, p[0], p[1], &ws.slab[i])
		if ws.items[i].Result == nil {
			resp.Errors++
		}
	}
	httpkit.WriteEncoded(w, http.StatusOK, &resp, false, func(b []byte) ([]byte, bool) {
		return appendRateBatchJSON(b, &resp)
	})
}
