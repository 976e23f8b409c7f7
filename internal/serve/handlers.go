package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"viralcast/internal/core"
	"viralcast/internal/httpkit"
	"viralcast/internal/repl"
)

// maxBodyBytes bounds an ingestion request body.
const maxBodyBytes = 8 << 20

// routes builds the daemon's mux. Every /v1 endpoint and the health
// probes are wrapped with metrics instrumentation under a stable
// endpoint label. Data-plane endpoints additionally pass through the
// request-budget middleware (a context deadline the handlers and
// compute paths honor) and per-class admission control; the control
// plane (reload, flush, health probes, metrics) stays ungated so an
// overloaded daemon remains observable and operable.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	control := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.Instrument(label, h))
	}
	add := func(pattern, label, class string, h http.HandlerFunc) {
		h = s.admit(class, h)
		h = httpkit.WithBudget(s.cfg.RequestTimeout, h)
		control(pattern, label, s.replGate(h))
	}
	add("POST /v1/events", "events", classIngest, s.fenceGate(s.handleEvents))
	add("GET /v1/cascades/{id}", "cascade", classRead, s.handleCascade)
	add("GET /v1/cascades/{id}/predict", "predict", classCompute, s.handlePredict)
	add("GET /v1/rate", "rate", classRead, s.handleRate)
	add("GET /v1/influencers", "influencers", classCompute, s.handleInfluencers)
	add("GET /v1/seeds", "seeds", classCompute, s.handleSeeds)
	add("POST /v1/simulate", "simulate", classCompute, s.handleSimulate)
	// Batched data plane: one admission ticket, one deadline, one
	// workspace, and one cache probe pass serve up to batchMax (1024) items;
	// a bad item fails its own slot, never the request.
	add("POST /v1/predict:batch", "predict_batch", classCompute, predictPipeline.handleBatch(s))
	add("POST /v1/rate:batch", "rate_batch", classRead, s.handleRateBatch)
	add("POST /v1/features:batch", "features_batch", classCompute, featuresPipeline.handleBatch(s))
	control("POST /v1/reload", "reload", s.handleReload)
	control("POST /v1/flush", "flush", s.fenceGate(s.handleFlush))
	control("GET /healthz", "healthz", s.handleHealthz)
	control("GET /readyz", "readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics)
	if s.cfg.WALDir != "" {
		// Replication surface, control plane like /metrics: a follower
		// catching up must keep streaming while the data plane sheds
		// load, and promotion is exactly the kind of thing an operator
		// does to an overloaded or dying cluster.
		control("GET "+repl.StreamPath, "repl_stream", s.handleRepl)
		// Promote is fenced by Promote itself, not the blanket gate: a
		// supervisor must be able to promote a fenced node back into
		// service by explicitly presenting an epoch above the fence.
		control("POST /v1/promote", "promote", s.handlePromote)
	}
	if s.cfg.EnablePprof {
		// Control plane like /metrics: ungated by admission control and
		// the request budget, so a daemon melting under load can still be
		// profiled — that is exactly when the profile matters. Raw
		// handlers, not instrumented: a 30s CPU profile would poison the
		// latency metrics.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// headerEpoch parses the fencing-epoch header, 0 when absent/garbled.
func headerEpoch(r *http.Request) uint64 {
	raw := r.Header.Get(httpkit.EpochHeader)
	if raw == "" {
		return 0
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// fenceGate guards the mutating surface (ingest, flush, promote)
// against split-brain. Two rejections, both 409 {"reason":"fenced"}:
//
//   - This node is fenced: it has observed a fencing epoch above its
//     own, meaning a promotion happened elsewhere that its history does
//     not include. A zombie ex-primary restarting after its follower
//     was promoted is the canonical case — its writes would fork
//     history, so none are accepted.
//
//   - The request presents a stale epoch: the caller's view of the
//     fleet is older than this node's, so it may be routing writes by
//     a pre-failover map. Refusing makes the stale caller re-learn the
//     topology instead of mutating through it.
//
// The gate also latches any newer epoch a request carries, so a fenced
// node learns its fate from the first router probe or relayed request
// that reaches it — no side channel needed.
func (s *Server) fenceGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.WALDir == "" {
			h(w, r)
			return
		}
		if remote := headerEpoch(r); remote > 0 {
			s.observeEpoch(remote)
		}
		own := s.Epoch()
		if by, fenced := s.fencingEpoch(); fenced {
			s.writeFenced(w, "this node is fenced: a newer promotion exists elsewhere; its writes cannot be accepted",
				own, "fencing_epoch", by)
			return
		}
		if remote := headerEpoch(r); remote > 0 && remote < own {
			s.writeFenced(w, fmt.Sprintf("request presents stale epoch %d; this node is at epoch %d", remote, own),
				own, "request_epoch", remote)
			return
		}
		h(w, r)
	}
}

// writeFenced counts and answers a write the fencing epoch refuses: the
// node's own epoch, and under rivalKey the epoch that outranks the
// write — the observed fence, or the stale request's own.
func (s *Server) writeFenced(w http.ResponseWriter, msg string, own uint64, rivalKey string, rival uint64) {
	s.metrics.fenceRejects.Add(1)
	httpkit.WriteJSON(w, http.StatusConflict, map[string]any{
		"error":  msg,
		"reason": "fenced",
		"epoch":  own,
		rivalKey: rival,
	})
}

// replGate protects the data plane of a follower whose local state is
// not a verified prefix of the primary's history: while bootstrapping
// or after detected divergence, reads would serve incomplete or wrong
// data, so they answer 503 until the (re-)bootstrap has applied every
// record the primary held when its stream opened. A healthy follower —
// syncing or current — serves normally; a primary passes through
// untouched.
func (s *Server) replGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.isFollower() {
			if st, ok := s.replStatus(); ok && !st.Servable {
				s.metrics.replUnservable.Add(1)
				httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error":   "follower has no verified copy of the primary's state yet",
					"reason":  "replication",
					"state":   st.State,
					"primary": s.cfg.FollowURL,
				})
				return
			}
		}
		h(w, r)
	}
}

// admit gates a handler behind its route class's limiter: admitted
// requests run (possibly after a bounded queue wait), excess is shed
// with 429 + Retry-After, and a deadline that fires while queued is a
// 503 like any other exhausted budget.
func (s *Server) admit(class string, h http.HandlerFunc) http.HandlerFunc {
	l := s.admission.limiters[class]
	if l == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := l.acquire(r.Context())
		switch {
		case err == nil:
			defer release()
			h(w, r)
		case errors.Is(err, errShed):
			s.metrics.shed.Add(class, 1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			httpkit.WriteJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":               fmt.Sprintf("overloaded: %s concurrency limit and queue are full", class),
				"reason":              "overload",
				"class":               class,
				"retry_after_seconds": retryAfterSeconds,
			})
		default:
			s.writeBudgetExhausted(w, err)
		}
	}
}

// writeBudgetExhausted counts and answers a request whose deadline
// fired (or whose client disconnected) before the work completed.
func (s *Server) writeBudgetExhausted(w http.ResponseWriter, err error) {
	s.metrics.deadlines.Add(1)
	httpkit.WriteDeadline(w, err)
}

// eventsWorkspace is one ingest request's reusable scratch: the body,
// the events parsed from it, and the sizes the ack reports. The WAL
// frames what it is handed before AppendBatchCtx returns, so nothing
// here outlives the request.
type eventsWorkspace struct {
	body   []byte
	events []Event
	sizes  []httpkit.CascadeSize
}

var eventsPool = sync.Pool{New: func() any { return new(eventsWorkspace) }}

// handleEvents ingests a batch of infection events. The body is either
// {"events": [{cascade, node, time}, ...]} or a single bare event
// object. Structurally valid events are appended even when siblings are
// rejected; per-event failures come back in "rejected".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Role gate: a follower's store is a replica of the primary's — a
	// locally ingested event would be silently dropped by the next
	// re-bootstrap and never replicated anywhere. 409 with a
	// machine-readable primary hint so clients re-route.
	if s.isFollower() {
		s.metrics.followerRejects.Add(1)
		httpkit.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":   "this daemon is a replication follower; ingest on the primary",
			"reason":  "follower",
			"primary": s.cfg.FollowURL,
		})
		return
	}
	// Degraded mode: a fail-stopped WAL means nothing can be made
	// durable, so ingestion is explicitly read-only — rejected up
	// front with a machine-readable cause, before any store mutation.
	// Everything else (predictions, reads, reload) keeps serving.
	lg := s.walLog()
	if lg != nil {
		if werr := lg.Err(); werr != nil {
			s.metrics.readOnly.Add(1)
			httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":    "ingestion disabled: daemon is read-only after a write-ahead-log failure; recover with POST /v1/reload or a restart",
				"reason":   "read_only",
				"cause":    degradedCauseWAL,
				"detail":   werr.Error(),
				"recovery": "POST /v1/reload",
			})
			return
		}
	}
	ws := eventsPool.Get().(*eventsWorkspace)
	defer eventsPool.Put(ws)
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, ws.body)
	if !ok {
		return
	}
	ws.body = body
	// The canonical envelope is scanned straight into the workspace;
	// anything else — the bare single event included — is the strict
	// reflective decoder's to accept or refuse.
	events, ok := httpkit.ScanEvents(body, ws.events[:0], nil)
	ws.events = events
	if !ok {
		var err error
		if events, err = httpkit.DecodeEventsStrict(body); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if len(events) == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "empty event batch")
		return
	}
	n := s.current().sys.Sys.N
	var rejected []httpkit.EventReject
	// The accepted events are compacted in place over the parsed batch
	// (the write index never passes the read index), so the slice the
	// WAL commits is the request's own.
	accepted := events[:0]
	sizes := ws.sizes[:0]
	for i, ev := range events {
		size, err := s.store.Append(ev, n)
		if err != nil {
			rejected = append(rejected, httpkit.EventReject{Index: i, Error: err.Error()})
			continue
		}
		sizes = append(sizes, httpkit.CascadeSize{ID: ev.Cascade, Size: size})
		accepted = append(accepted, ev)
	}
	ws.sizes = sizes
	// With a WAL configured, the 200 below is a durability contract:
	// the whole accepted batch rides one group commit, and a client is
	// only told "accepted" after the fsync. On commit failure the
	// events sit in memory but are NOT durable, so the response is an
	// error — a crash would lose them, exactly as if the request had
	// never completed. The commit wait is bounded by the request
	// budget: a stalled disk turns into a 503 at the deadline, not a
	// hung client — and a retried batch is absorbed by the SI
	// duplicate guard if the stalled commit did land.
	if lg != nil && len(accepted) > 0 {
		if err := lg.AppendBatchCtx(r.Context(), accepted); err != nil {
			if httpkit.CtxDone(err) {
				s.cfg.Logf("serve: WAL commit exceeded the request budget: %v", err)
				s.writeBudgetExhausted(w, fmt.Errorf("events accepted but not durably committed: %w", err))
				return
			}
			s.cfg.Logf("serve: WAL append failed: %v", err)
			httpkit.WriteError(w, http.StatusInternalServerError,
				"events not durable (write-ahead log failure): %v", err)
			return
		}
	}
	s.metrics.events.Add(int64(len(accepted)))
	// {accepted, rejected, sizes}, each cascade's last reported size.
	httpkit.WriteEncoded(w, http.StatusOK, nil, true, func(b []byte) ([]byte, bool) {
		return httpkit.AppendAckJSON(b, len(accepted), rejected, sizes), true
	})
}

// pathCascadeID parses the {id} path segment.
func pathCascadeID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("cascade id %q is not an integer", r.PathValue("id"))
	}
	return id, nil
}

// handleCascade reports a live cascade's current shape.
func (s *Server) handleCascade(w http.ResponseWriter, r *http.Request) {
	id, err := pathCascadeID(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, ok := s.store.Snapshot(id)
	if !ok {
		httpkit.WriteError(w, http.StatusNotFound, "no live cascade %d", id)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{
		"cascade":    c.ID,
		"size":       c.Size(),
		"duration":   c.Duration(),
		"first_time": c.Infections[0].Time,
		"last_time":  c.Infections[len(c.Infections)-1].Time,
		"nodes":      c.Nodes(),
	})
}

// Typed response bodies for the data-plane endpoints: a struct encodes
// through encoding/json's cached per-type program — no per-request map
// allocation, no boxing of every field into an interface, no key sort.
type predictResponse struct {
	Cascade     int     `json:"cascade"`
	Viral       bool    `json:"viral"`
	Margin      float64 `json:"margin"`
	Size        int     `json:"size"`
	EarlyCutoff float64 `json:"early_cutoff"`
	Threshold   int     `json:"threshold"`
	Generation  uint64  `json:"generation"`
	// ShardID is the answering daemon's ring index (-1 unsharded), so a
	// routed client can assert ring affinity: the same cascade id must
	// always land on the same shard.
	ShardID int `json:"shard_id"`
	// Epoch is the answering node's fencing epoch (0 before any
	// promotion), so clients can detect an answer from a node the fleet
	// has failed over away from.
	Epoch uint64 `json:"epoch"`
}

type rateResponse struct {
	U          int     `json:"u"`
	V          int     `json:"v"`
	Rate       float64 `json:"rate"`
	Generation uint64  `json:"generation"`
}

// influencersResponse and seedsResponse carry concrete slices rather
// than `any` so the router can decode a shard's answer into the same
// types, merge, and re-encode byte-identically to a single-node oracle.
type influencersResponse struct {
	Influencers []core.Influencer `json:"influencers"`
	Cached      bool              `json:"cached"`
	Generation  uint64            `json:"generation"`
}

type seedsResponse struct {
	Seeds      []core.Seed `json:"seeds"`
	Horizon    float64     `json:"horizon"`
	Cached     bool        `json:"cached"`
	Generation uint64      `json:"generation"`
}

// handleInfluencers serves the top-k influencer ranking from the TTL
// cache, one entry per generation whatever k was: the published order
// is strict and total, so the first k of an exact top-k' are the exact
// top-k, and the O(n·K) scan plus sort runs again only for a k above
// what the live entry was ranked for. A sharded daemon ranks only its
// own node stripe — its k candidates are exactly what the router's
// MergeTopInfluencers needs to reconstruct the global ranking.
func (s *Server) handleInfluencers(w http.ResponseWriter, r *http.Request) {
	k, err := httpkit.QueryInt(r, "k", 10)
	if err != nil || k <= 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "parameter k must be a positive integer")
		return
	}
	cur := s.current()
	lo, hi := s.stripe(cur.sys.Sys.N)
	// The stripe is fixed per process, so the generation keys uniquely.
	key := fmt.Sprintf("influencers:gen=%d", cur.gen)
	infs, hit, ok := cachedCompute(s, w, r, key, k, func() ([]core.Influencer, error) {
		return cur.sys.Sys.TopInfluencersRangeCtx(r.Context(), k, lo, hi)
	})
	if !ok {
		return
	}
	if k < len(infs) {
		infs = infs[:k:k] // the cached ranking is shared: cut it, never write to it
	}
	resp := &influencersResponse{Influencers: infs, Cached: hit, Generation: cur.gen}
	httpkit.WriteEncoded(w, http.StatusOK, resp, true, func(b []byte) ([]byte, bool) {
		return httpkit.AppendRankingJSON(b, infs, hit, cur.gen)
	})
}

// handleSeeds serves influence-maximization seed sets (lazy greedy,
// O(n·k) coverage evaluations) from the TTL cache.
func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	k, errK := httpkit.QueryInt(r, "k", 5)
	horizon, errH := httpkit.QueryFloat(r, "horizon", 1)
	if errK != nil || k <= 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "parameter k must be a positive integer")
		return
	}
	if errH != nil || horizon <= 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "parameter horizon must be a positive number")
		return
	}
	cur := s.current()
	key := fmt.Sprintf("seeds:k=%d:h=%g:gen=%d", k, horizon, cur.gen)
	seeds, hit, ok := cachedCompute(s, w, r, key, 0, func() ([]core.Seed, error) {
		return s.selectSeeds(cur.sys.Sys, r.Context(), k, horizon)
	})
	if !ok {
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, &seedsResponse{
		Seeds:      seeds,
		Horizon:    horizon,
		Cached:     hit,
		Generation: cur.gen,
	})
}

// cachedCompute runs one expensive endpoint's computation through the
// TTL cache — once per key per TTL window however many clients ask —
// and answers its failures: an exhausted budget is a 503 and anything
// else a 500, and because the cache never stores errors nothing about a
// failed attempt is remembered. need is how many ranks of a ranking the
// caller will serve (httpkit.Cache.DoCover), 0 for any other value.
// ok=false means the response is written.
func cachedCompute[T any](s *Server, w http.ResponseWriter, r *http.Request, key string, need int, compute func() (T, error)) (val T, hit, ok bool) {
	v, hit, err := s.cache.DoCover(r.Context(), key, need, func() (any, bool, error) {
		v, err := compute()
		return v, true, err
	})
	if hit {
		s.metrics.cacheHits.Add(1)
	} else {
		s.metrics.cacheMiss.Add(1)
	}
	if err != nil {
		if httpkit.CtxDone(err) {
			s.writeBudgetExhausted(w, err)
		} else {
			httpkit.WriteError(w, http.StatusInternalServerError, "%v", err)
		}
		return val, hit, false
	}
	return v.(T), hit, true
}

// handleReload swaps in a freshly loaded model without interrupting
// traffic.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	gen, err := s.Reload()
	if err != nil {
		httpkit.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{"generation": gen})
}

// handleFlush runs one online refit (Flush) on demand; "flushed" is how
// many live cascades it saw, 0 when nothing changed since the last.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		httpkit.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":   "this daemon is a replication follower; flush on the primary",
			"reason":  "follower",
			"primary": s.cfg.FollowURL,
		})
		return
	}
	n, err := s.Flush()
	if err != nil {
		httpkit.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{
		"flushed":    n,
		"generation": s.Generation(),
	})
}

// handleRepl is the primary side of the replication protocol: a thin
// role-checked shim over repl.Primary's stream, which both bootstraps a
// follower (from the oldest segment) and tails the log. The Primary
// value is built per request because the WAL pointer can be swapped
// (degraded-mode recovery, promotion) under live traffic.
func (s *Server) handleRepl(w http.ResponseWriter, r *http.Request) {
	p, ok := s.replPrimary()
	if !ok {
		httpkit.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":   "this daemon is not a primary with a live WAL",
			"reason":  "not_primary",
			"primary": s.cfg.FollowURL,
		})
		return
	}
	p.HandleStream(w, r)
}

// replPrimary builds the replication source over the live WAL, or
// reports false when this daemon cannot serve replication (follower
// role, or the WAL is poisoned/absent).
func (s *Server) replPrimary() (*repl.Primary, bool) {
	if s.isFollower() {
		return nil, false
	}
	lg := s.walLog()
	if lg == nil || lg.Err() != nil {
		return nil, false
	}
	return &repl.Primary{Log: lg, Logf: s.cfg.Logf}, true
}

// handlePromote flips a follower into a primary without a restart. The
// optional body {"epoch": N} (or ?epoch=N) pins the fencing epoch the
// promotion must persist; a stale epoch — at or below the persisted
// one, or under an observed fence — answers 409 {"reason":"fenced"} so
// a replayed script or a superseded supervisor cannot resurrect
// split-brain. An absent/zero epoch auto-bumps (persisted+1).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.observeEpoch(headerEpoch(r))
	var epoch uint64
	if raw := r.URL.Query().Get("epoch"); raw != "" {
		e, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "parameter epoch: %q is not an unsigned integer", raw)
			return
		}
		epoch = e
	}
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, nil)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		var req struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := httpkit.DecodeStrict(body, &req); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "promote body must be {\"epoch\": N}: %v", err)
			return
		}
		if req.Epoch > 0 {
			epoch = req.Epoch
		}
	}
	promoted, err := s.Promote(epoch)
	if err != nil {
		if errors.Is(err, ErrFenced) {
			by, _ := s.fencingEpoch()
			s.writeFenced(w, err.Error(), s.Epoch(), "fencing_epoch", by)
			return
		}
		httpkit.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{
		"role":     "primary",
		"promoted": promoted,
		"epoch":    s.Epoch(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether a model is loaded and the daemon can
// answer predictions; load balancers should gate traffic on this. A
// degraded daemon (read-only ingestion after a WAL failure) still
// answers 200 — predictions keep serving, so traffic keeps routing —
// but the body says "degraded" with a machine-readable cause, and the
// stale flag reports a model serving past a failed refresh.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Probes carry the prober's fencing epoch: answering readyz is also
	// how a zombie node learns the fleet moved on without it.
	s.observeEpoch(headerEpoch(r))
	cur := s.current()
	if cur == nil || cur.sys == nil || cur.sys.Sys == nil {
		httpkit.WriteError(w, http.StatusServiceUnavailable, "model not loaded")
		return
	}
	snap := s.healthSnapshot()
	role := "primary"
	if s.isFollower() {
		role = "follower"
	}
	resp := map[string]any{
		"status":     "ready",
		"role":       role,
		"degraded":   false,
		"read_only":  false,
		"stale":      snap.Stale,
		"nodes":      cur.sys.Sys.N,
		"predictor":  cur.sys.Pred != nil,
		"generation": cur.gen,
		// Sharding identity, always present (-1/0 when unsharded): the
		// router's health probe compares these against its ring so a
		// misconfigured member is rejected instead of silently merged.
		"shard_id":  s.ShardID(),
		"ring_size": s.RingSize(),
		// Fencing surface, always present: the node's persisted epoch
		// and whether it has observed a higher one (and is therefore
		// refusing writes). The router's failure detector keys
		// quarantine decisions off these.
		"epoch":  s.Epoch(),
		"fenced": false,
	}
	if by, fenced := s.fencingEpoch(); fenced {
		resp["status"] = "fenced"
		resp["fenced"] = true
		resp["fencing_epoch"] = by
		resp["read_only"] = true
	}
	if st, ok := s.replStatus(); ok {
		// Replication lag surface: load balancers key off "replication"
		// being "current". The chain fingerprint is the follower's
		// verified-prefix proof; the router checks it is present before
		// auto-promoting.
		resp["replication"] = st.State
		resp["replication_servable"] = st.Servable
		resp["replication_lag_records"] = st.LagRecords
		resp["replication_lag_seconds"] = st.LagSeconds
		resp["replication_reconnects"] = st.Reconnects
		resp["replication_cursor"] = st.Cursor.String()
		resp["replication_fingerprint"] = fmt.Sprintf("%08x", st.Fingerprint)
		if s.isFollower() {
			resp["primary"] = s.cfg.FollowURL
			resp["read_only"] = true
			if !st.Servable {
				resp["status"] = "replicating"
			}
		}
	}
	if snap.DegradedCause != "" {
		resp["status"] = "degraded"
		resp["degraded"] = true
		resp["read_only"] = true
		resp["cause"] = snap.DegradedCause
		resp["detail"] = snap.DegradedDetail
		resp["degraded_seconds"] = snap.DegradedFor.Seconds()
		resp["recovery"] = "POST /v1/reload"
	}
	if snap.Stale {
		resp["stale_error"] = snap.StaleErr
		resp["stale_seconds"] = snap.StaleFor.Seconds()
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}
