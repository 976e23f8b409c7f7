package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/httpkit"
)

// One item pipeline. Every cascade-scoped data-plane answer — GET
// /v1/cascades/{id}/predict, POST /v1/predict:batch, POST
// /v1/features:batch — comes out of cascadePipeline.run: resolve ids →
// store snapshot + universe check → cache probe → one blocked compute
// over the misses → cache fill → slots. A batch serves up to
// Config.BatchMax items through ONE admission ticket, ONE request
// deadline, ONE generation pin, ONE pooled workspace, and ONE cache
// probe pass — amortizing the per-request overhead that dominates single
// predictions (~5µs of admission, JSON, and workspace churn around ~1µs
// of math) — and a per-item failure fills its own slot (status +
// message) without failing the batch. The single endpoint is the same
// pipeline over one id with the cache stage skipped and its one slot
// unwrapped into a plain response, so a batch slot and a single answer
// cannot disagree: they are the same code. The independent oracle the
// tests hold both against is core's scalar Predictor.PredictViral.

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
	// CacheHits counts items served from the TTL cache (deterministic
	// per generation + cascade snapshot, so a hit is byte-identical to
	// a recompute).
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
// family from another: R is the per-item payload, C core's per-item
// compute result.
type cascadePipeline[R, C any] struct {
	prefix  string // cache-key namespace
	compute func(p *core.Predictor, cs []*cascade.Cascade, out []C)
	// build fills out with one computed row's payload, or reports the
	// row's own failure (a 422 slot).
	build  func(s *Server, cur *model, c *cascade.Cascade, res *C, out *R) error
	encode func(w http.ResponseWriter, env *batchResponse[R])
	pool   sync.Pool // of *cascadeWorkspace[R, C]
}

var predictPipeline = &cascadePipeline[predictResponse, core.BatchResult]{
	prefix:  "predict",
	compute: (*core.Predictor).PredictViralBatch,
	build: func(s *Server, cur *model, c *cascade.Cascade, res *core.BatchResult, out *predictResponse) error {
		*out = predictResponse{
			Cascade:     c.ID,
			Viral:       res.Viral,
			Margin:      res.Margin,
			Size:        c.Size(),
			EarlyCutoff: cur.sys.Pred.EarlyCutoff(),
			Threshold:   cur.sys.Pred.Threshold(),
			Generation:  cur.gen,
			ShardID:     s.ShardID(),
			Epoch:       s.Epoch(),
		}
		return res.Err
	},
	encode: writePredictBatch,
	pool:   sync.Pool{New: func() any { return new(cascadeWorkspace[predictResponse, core.BatchResult]) }},
}

// featuresPipeline extracts the early-adopter feature sets — the
// model's diagnostic surface, batched the same way predictions are
// (same checks, same per-item contract).
var featuresPipeline = &cascadePipeline[featuresPayload, core.FeatureResult]{
	prefix:  "features",
	compute: (*core.Predictor).FeaturesBatch,
	build: func(s *Server, cur *model, c *cascade.Cascade, res *core.FeatureResult, out *featuresPayload) error {
		*out = featuresPayload{
			Cascade:     c.ID,
			DiverA:      res.Set.DiverA,
			NormA:       res.Set.NormA,
			MaxA:        res.Set.MaxA,
			EarlyCount:  res.Set.EarlyCount,
			EarlyRate:   res.Set.EarlyRate,
			Size:        c.Size(),
			EarlyCutoff: cur.sys.Pred.EarlyCutoff(),
			Generation:  cur.gen,
		}
		return res.Err
	},
	encode: func(w http.ResponseWriter, env *batchResponse[featuresPayload]) {
		httpkit.WriteJSONCompact(w, http.StatusOK, env)
	},
	pool: sync.Pool{New: func() any { return new(cascadeWorkspace[featuresPayload, core.FeatureResult]) }},
}

// cascadeWorkspace is one request's reusable scratch: id and snapshot
// slices, cache keys and value slots, the compacted compute list, and
// the per-item result slots. Everything the response references is
// written out before the workspace returns to the pool, so nothing
// escapes a request.
type cascadeWorkspace[R, C any] struct {
	ids        []int
	body       []byte
	snaps      []*cascade.Cascade
	keys       []string
	vals       []any
	compute    []*cascade.Cascade
	computeIdx []int
	results    []C
	items      []batchItem[R]
}

// grow readies the workspace for n items.
func (ws *cascadeWorkspace[R, C]) grow(n int) {
	ws.snaps = zeroed(ws.snaps, n)
	ws.keys = zeroed(ws.keys, n)
	ws.vals = zeroed(ws.vals, n)
	ws.items = zeroed(ws.items, n)
	ws.compute = ws.compute[:0]
	ws.computeIdx = ws.computeIdx[:0]
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

// run is the item pipeline over ws.ids. cached selects the cache
// stages: the batch endpoints probe and fill the TTL cache; the single
// endpoint never has, and must not start counting hits and misses. A
// false return means run already answered the request (no predictor,
// exhausted budget).
func (p *cascadePipeline[R, C]) run(s *Server, w http.ResponseWriter, r *http.Request, ws *cascadeWorkspace[R, C], cached bool) (batchResponse[R], bool) {
	cur := s.current()
	pred := cur.sys.Pred
	if pred == nil {
		httpkit.WriteError(w, http.StatusServiceUnavailable,
			"no predictor configured (start the daemon with training cascades)")
		return batchResponse[R]{}, false
	}
	ids := ws.ids
	ws.grow(len(ids))
	items := ws.items
	errors := 0
	fail := func(i, status int, msg string) {
		items[i] = batchItem[R]{Status: status, Error: msg}
		errors++
	}

	// Resolve every id to a live-cascade snapshot and admit it against
	// the pinned generation's node universe. A prediction is
	// deterministic given (generation, epoch, cascade snapshot), which
	// is what the cache key names.
	gen, epoch, n := cur.gen, s.Epoch(), cur.sys.Sys.N
	for i, id := range ids {
		c, ok := s.store.Snapshot(id)
		if !ok {
			fail(i, http.StatusNotFound, "no live cascade "+strconv.Itoa(id))
			continue
		}
		if mx := maxInfectedNode(c); mx >= n {
			fail(i, http.StatusUnprocessableEntity,
				"cascade "+strconv.Itoa(id)+" contains node "+strconv.Itoa(mx)+
					" outside the current model's universe [0,"+strconv.Itoa(n)+")")
			continue
		}
		ws.snaps[i] = c
		if cached {
			ws.keys[i] = predictKey(p.prefix, gen, epoch, id, c.Size())
		}
	}

	// One cache probe pass for the whole batch; hits fill their slots
	// and drop out of the compute list.
	hits := 0
	if cached {
		hits = s.cache.PeekAll(ws.keys, ws.vals)
	}
	for i, c := range ws.snaps {
		if c == nil {
			continue
		}
		if v, ok := ws.vals[i].(*R); ok {
			items[i].Result = v
			ws.vals[i] = nil // don't re-fill what was already cached
			continue
		}
		ws.compute = append(ws.compute, c)
		ws.computeIdx = append(ws.computeIdx, i)
	}
	if err := r.Context().Err(); err != nil {
		s.writeBudgetExhausted(w, err)
		return batchResponse[R]{}, false
	}

	// One blocked pass over every miss: contiguous feature block,
	// in-place standardization, one matrix–vector kernel.
	if len(ws.compute) > 0 {
		ws.results = zeroed(ws.results, len(ws.compute))
		results := ws.results
		p.compute(pred, ws.compute, results)
		// One slab for every computed payload: the pointers outlive the
		// request (they go into the TTL cache), so the slab is NOT
		// pooled — but 256 items cost one allocation, not 256.
		slab := make([]R, len(results))
		for j := range results {
			i := ws.computeIdx[j]
			if err := p.build(s, cur, ws.snaps[i], &results[j], &slab[j]); err != nil {
				fail(i, http.StatusUnprocessableEntity, err.Error())
				ws.keys[i] = "" // never cache an error slot
				continue
			}
			items[i].Result = &slab[j]
			ws.vals[i] = &slab[j] // per-item cache fill on the way out
		}
		if cached {
			s.cache.PutAll(ws.keys, ws.vals)
		}
	}
	if cached {
		s.metrics.cacheHits.Add(int64(hits))
		s.metrics.cacheMiss.Add(int64(len(ws.compute)))
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

// handleBatch is the pipeline's POST …:batch endpoint.
func (p *cascadePipeline[R, C]) handleBatch(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ws := p.pool.Get().(*cascadeWorkspace[R, C])
		defer p.pool.Put(ws)
		if !p.decodeIDs(s, w, r, ws) {
			return
		}
		if env, ok := p.run(s, w, r, ws, true); ok {
			p.encode(w, &env)
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
	ws := predictPipeline.pool.Get().(*cascadeWorkspace[predictResponse, core.BatchResult])
	defer predictPipeline.pool.Put(ws)
	ws.ids = append(ws.ids[:0], id)
	if env, ok := predictPipeline.run(s, w, r, ws, false); ok {
		writeItem(w, env.Results[0])
	}
}

// decodeIDs reads and validates a {"cascades": [...]} body against the
// batch cap, parsing into the workspace's reusable id slice. The
// open-coded scanner accepts exactly the canonical client encoding; any
// body it cannot prove canonical takes the strict reflective decode, so
// acceptance and error behavior are unchanged — only the hot path loses
// the per-request decoder state. A false return means the error
// response was written.
func (p *cascadePipeline[R, C]) decodeIDs(s *Server, w http.ResponseWriter, r *http.Request, ws *cascadeWorkspace[R, C]) bool {
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, ws.body)
	if !ok {
		return false
	}
	ws.body = body
	if ids, ok := parseCascadesFast(body, ws.ids[:0]); ok {
		ws.ids = ids
	} else {
		var req struct {
			Cascades []int `json:"cascades"`
		}
		if err := httpkit.DecodeStrict(body, &req); err != nil || req.Cascades == nil {
			httpkit.WriteError(w, http.StatusBadRequest, "body must be {\"cascades\": [id, ...]}")
			return false
		}
		ws.ids = append(ws.ids[:0], req.Cascades...)
	}
	return s.admitBatch(w, len(ws.ids), "cascade")
}

// admitBatch enforces the request-level size contract every batch
// endpoint shares: only an empty batch or one over -batch-max fails the
// request; everything else fails at most its own slot.
func (s *Server) admitBatch(w http.ResponseWriter, n int, noun string) bool {
	if n == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "empty %s batch", noun)
		return false
	}
	if n > s.cfg.BatchMax {
		httpkit.WriteError(w, http.StatusBadRequest,
			"batch of %d %ss exceeds the daemon's limit %d; split the request or raise -batch-max",
			n, noun, s.cfg.BatchMax)
		return false
	}
	return true
}

// predictKey is the per-item cache key: for an append-only SI cascade
// the snapshot is identified by (id, size) — every append grows the
// size, so a stale entry can never alias a newer snapshot.
func predictKey(prefix string, gen, epoch uint64, id, size int) string {
	b := make([]byte, 0, 56)
	b = append(b, prefix...)
	b = append(b, ":gen="...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, ":epoch="...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, ":id="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ":size="...)
	b = strconv.AppendInt(b, int64(size), 10)
	return string(b)
}

// maxInfectedNode is the largest node id the cascade has infected, -1
// when empty, without materializing the node slice.
func maxInfectedNode(c *cascade.Cascade) int {
	mx := -1
	for _, inf := range c.Infections {
		if inf.Node > mx {
			mx = inf.Node
		}
	}
	return mx
}

// parseCascadesFast scans {"cascades":[int,...]} with optional JSON
// whitespace and plain integer literals (no exponents, no leading
// zeros). ok=false means the body needs the full strict decoder — the
// scanner only ever accepts inputs on which it agrees with it.
func parseCascadesFast(b []byte, dst []int) ([]int, bool) {
	i, n := 0, len(b)
	skip := func() {
		for i < n && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	lit := func(s string) bool {
		if n-i < len(s) || string(b[i:i+len(s)]) != s {
			return false
		}
		i += len(s)
		return true
	}
	skip()
	if !lit("{") {
		return nil, false
	}
	skip()
	if !lit(`"cascades"`) {
		return nil, false
	}
	skip()
	if !lit(":") {
		return nil, false
	}
	skip()
	if !lit("[") {
		return nil, false
	}
	skip()
	if i < n && b[i] == ']' {
		i++
	} else {
		for {
			neg := false
			if i < n && b[i] == '-' {
				neg = true
				i++
			}
			start := i
			v := 0
			for i < n && b[i] >= '0' && b[i] <= '9' {
				d := int(b[i] - '0')
				if v > (1<<62)/10 {
					return nil, false // near overflow: let strconv via the strict path decide
				}
				v = v*10 + d
				i++
			}
			if i == start || (i-start > 1 && b[start] == '0') {
				return nil, false
			}
			if neg {
				v = -v
			}
			dst = append(dst, v)
			skip()
			if i < n && b[i] == ',' {
				i++
				skip()
				continue
			}
			if i < n && b[i] == ']' {
				i++
				break
			}
			return nil, false
		}
	}
	skip()
	if !lit("}") {
		return nil, false
	}
	skip()
	return dst, i == n
}

// The predict:batch envelope is encoded by hand: at batch 256 the
// reflective encoding/json walk costs more than all the predictions in
// the envelope combined, and this is the one response shape hot enough
// to justify an open-coded encoder. The output is byte-identical to
// encoding/json's compact form — same field order as the struct tags,
// same float formatting (appendFloatJSON replicates the shortest
// round-trip algorithm), same string escaping — and a test holds the
// two encoders equal. Non-finite floats cannot be hand-encoded into
// valid JSON; the handler detects them and falls back to the reflective
// encoder, which fails the request exactly as the single path would.

// appendFloatJSON appends f the way encoding/json does: shortest
// round-trip form, 'f' format in the human range, 'e' outside it with
// the exponent's leading zero trimmed. Callers must reject NaN/Inf
// first.
func appendFloatJSON(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendStringJSON appends s quoted with encoding/json's default
// escaping: control characters, quote, backslash, and the HTML-unsafe
// <, >, & become escapes; valid UTF-8 passes through.
func appendStringJSON(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20 && c != '<' && c != '>' && c != '&':
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

func appendPredictItemJSON(b []byte, it *batchItem[predictResponse], ec []byte) []byte {
	if it.Result == nil {
		b = append(b, `{"status":`...)
		b = strconv.AppendInt(b, int64(it.Status), 10)
		b = append(b, `,"error":`...)
		b = appendStringJSON(b, it.Error)
		return append(b, '}')
	}
	r := it.Result
	b = append(b, `{"result":{"cascade":`...)
	b = strconv.AppendInt(b, int64(r.Cascade), 10)
	b = append(b, `,"viral":`...)
	b = strconv.AppendBool(b, r.Viral)
	b = append(b, `,"margin":`...)
	b = appendFloatJSON(b, r.Margin)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(r.Size), 10)
	b = append(b, `,"early_cutoff":`...)
	b = append(b, ec...)
	b = append(b, `,"threshold":`...)
	b = strconv.AppendInt(b, int64(r.Threshold), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	b = append(b, `,"shard_id":`...)
	b = strconv.AppendInt(b, int64(r.ShardID), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, "}}"...)
}

func appendPredictBatchJSON(b []byte, env *batchResponse[predictResponse]) []byte {
	// Every success slot in one envelope shares the generation pin, so
	// EarlyCutoff is uniform across them; format it once instead of
	// running the shortest-round-trip search per item (the comparison
	// below keeps the cache exact even if that invariant ever broke).
	var ecBuf [32]byte
	var ec []byte
	var ecVal float64
	b = append(b, `{"results":[`...)
	for i := range env.Results {
		if i > 0 {
			b = append(b, ',')
		}
		if r := env.Results[i].Result; r != nil {
			if ec == nil || r.EarlyCutoff != ecVal {
				ec = appendFloatJSON(ecBuf[:0], r.EarlyCutoff)
				ecVal = r.EarlyCutoff
			}
		}
		b = appendPredictItemJSON(b, &env.Results[i], ec)
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(env.Count), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(env.Errors), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(env.CacheHits), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, env.Generation, 10)
	b = append(b, `,"shard_id":`...)
	b = strconv.AppendInt(b, int64(env.ShardID), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, env.Epoch, 10)
	// json.Encoder terminates every value with a newline; match it.
	return append(b, '}', '\n')
}

// batchEncPool recycles the hand-encoder's output buffers, with the
// same retention cap as the shared response-buffer pool.
var batchEncPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// writePredictBatch emits the envelope through the open-coded encoder,
// deferring to the reflective one when any float is non-finite (which
// 500s the request, matching single-request behavior).
func writePredictBatch(w http.ResponseWriter, env *batchResponse[predictResponse]) {
	for i := range env.Results {
		if r := env.Results[i].Result; r != nil &&
			(math.IsNaN(r.Margin) || math.IsInf(r.Margin, 0) ||
				math.IsNaN(r.EarlyCutoff) || math.IsInf(r.EarlyCutoff, 0)) {
			httpkit.WriteJSONCompact(w, http.StatusOK, env)
			return
		}
	}
	bp := batchEncPool.Get().(*[]byte)
	b := appendPredictBatchJSON((*bp)[:0], env)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // the response is already committed
	if cap(b) <= httpkit.MaxPooledResponseBuf {
		*bp = b
		batchEncPool.Put(bp)
	}
}

type rateBatchResponse struct {
	Results    []batchItem[rateResponse] `json:"results"`
	Count      int                       `json:"count"`
	Errors     int                       `json:"errors"`
	Generation uint64                    `json:"generation"`
}

// rateItem is the one per-pair validate + lookup behind GET /v1/rate
// and every rate:batch slot: the inferred hazard rate of u infecting v
// under the pinned generation, or the 400 the pair earns.
func rateItem(cur *model, u, v int) batchItem[rateResponse] {
	n := cur.sys.Sys.N
	switch {
	case u < 0 || v < 0:
		return batchItem[rateResponse]{Status: http.StatusBadRequest,
			Error: "parameters u and v must be non-negative integers"}
	case u >= n || v >= n:
		return batchItem[rateResponse]{Status: http.StatusBadRequest,
			Error: "nodes must be in [0," + strconv.Itoa(n) + ")"}
	}
	return batchItem[rateResponse]{Result: &rateResponse{
		U: u, V: v,
		Rate:       cur.sys.Sys.Rate(u, v),
		Generation: cur.gen,
	}}
}

// handleRate reports the inferred hazard rate of u infecting v. An
// unparseable parameter is the same client error as a negative one.
func (s *Server) handleRate(w http.ResponseWriter, r *http.Request) {
	u, errU := httpkit.QueryInt(r, "u", -1)
	v, errV := httpkit.QueryInt(r, "v", -1)
	if errU != nil || errV != nil {
		u = -1
	}
	writeItem(w, rateItem(s.current(), u, v))
}

// handleRateBatch answers a batch of pairwise hazard-rate lookups. No
// cache — a rate is one K-length dot product, cheaper than a cache
// probe — but the batch still amortizes admission, deadline, and JSON
// overhead.
func (s *Server) handleRateBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, nil)
	if !ok {
		return
	}
	var req struct {
		Pairs []struct{ U, V int } `json:"pairs"`
	}
	if err := httpkit.DecodeStrict(body, &req); err != nil || req.Pairs == nil {
		httpkit.WriteError(w, http.StatusBadRequest, "body must be {\"pairs\": [{\"u\": ..., \"v\": ...}, ...]}")
		return
	}
	if !s.admitBatch(w, len(req.Pairs), "pair") {
		return
	}
	cur := s.current()
	resp := rateBatchResponse{
		Results:    make([]batchItem[rateResponse], len(req.Pairs)),
		Count:      len(req.Pairs),
		Generation: cur.gen,
	}
	for i, p := range req.Pairs {
		resp.Results[i] = rateItem(cur, p.U, p.V)
		if resp.Results[i].Result == nil {
			resp.Errors++
		}
	}
	httpkit.WriteJSONCompact(w, http.StatusOK, &resp)
}
