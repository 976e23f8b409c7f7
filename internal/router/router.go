package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"viralcast/internal/core"
	"viralcast/internal/httpkit"
	"viralcast/internal/pool"
)

// Config configures a Router. Shards is required; everything else has
// a serving-friendly default.
type Config struct {
	// Shards is the static fleet, in ring order: Shards[i] must be the
	// daemon started with -shard-id i -ring-size len(Shards). The
	// health prober verifies that claim against each member's /readyz.
	Shards []Shard
	// RequestTimeout is the per-request budget. It propagates to every
	// shard call (minus a small reserve for the merge and the response
	// write), so a slow shard degrades the answer to a partial within
	// the budget instead of blowing through it. 0 disables.
	RequestTimeout time.Duration
	// ProbeEvery is the background health-probe cadence. Default 2s.
	ProbeEvery time.Duration
	// DrainTimeout bounds the graceful shutdown drain. Default 10s.
	DrainTimeout time.Duration
	// AutoFailover arms the supervision layer: when a shard's primary
	// has failed SuspectAfter consecutive probes and a follower is
	// configured, the router verifies the follower (servable, fully
	// caught up, chain fingerprint present), promotes it at a fresh
	// fencing epoch, and rewrites the ring slot's target — no operator
	// in the loop. Off by default: a fleet without followers gets
	// nothing from it, and a fleet with them should opt in knowingly.
	AutoFailover bool
	// SuspectAfter is how many consecutive failed probes move a shard
	// from healthy to suspect. Default 3: one blip is noise, three
	// probe intervals of silence is a dead process.
	SuspectAfter int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// cacheTTL bounds staleness of cached merged rankings. Partial results
// are never cached regardless.
const cacheTTL = 5 * time.Second

// Router is the fleet front-end. Create with New, embed via Handler,
// or run the full lifecycle with Listen + Serve.
type Router struct {
	cfg     Config
	ring    *Ring
	client  *client
	cache   *httpkit.Cache
	metrics *Metrics
	det     *detector
	handler http.Handler

	probeMu  sync.Mutex
	probeRes []probeResult
	probeAt  time.Time

	ln net.Listener
}

// New builds a Router over the configured fleet. It does not contact
// the shards — the fleet may still be starting; the health prober and
// the first requests discover liveness.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: Config.Shards is required")
	}
	for i, sh := range cfg.Shards {
		if sh.Primary == "" {
			return nil, fmt.Errorf("router: shard %d has no primary URL", i)
		}
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(len(cfg.Shards)),
		cache:    httpkit.NewCache(cacheTTL, time.Now),
		det:      newDetector(cfg.Shards, cfg.SuspectAfter, cfg.AutoFailover),
		probeRes: make([]probeResult, len(cfg.Shards)),
	}
	rt.metrics = newRouterMetrics(len(cfg.Shards), rt.healthSnapshot, rt.det)
	rt.client = newClient(rt.metrics)
	rt.handler = rt.routes()
	return rt, nil
}

// shard returns ring slot i's current routing target. Request paths
// go through here, not Config.Shards: failover rewrites the target,
// and a request racing the rewrite must see either the old primary or
// the promoted follower — never a half-written Shard.
func (rt *Router) shard(i int) Shard { return rt.det.shard(i) }

// routes builds the router's mux: the same data-plane surface as one
// viralcastd, so clients swap a daemon URL for a router URL and keep
// working, plus the router's own health and metrics plane.
func (rt *Router) routes() http.Handler {
	mux := http.NewServeMux()
	control := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rt.metrics.Instrument(label, h))
	}
	// Data-plane requests carry the per-request deadline; shard calls
	// inherit it through the request context.
	add := func(pattern, label string, h http.HandlerFunc) {
		control(pattern, label, httpkit.WithBudget(rt.cfg.RequestTimeout, h))
	}
	add("POST /v1/events", "events", rt.handleEvents)
	add("GET /v1/cascades/{id}", "cascade", rt.handleCascade)
	add("GET /v1/cascades/{id}/predict", "predict", rt.handlePredict)
	add("GET /v1/rate", "rate", rt.handleRate)
	add("GET /v1/influencers", "influencers", rt.handleInfluencers)
	add("GET /v1/seeds", "seeds", rt.handleSeeds)
	add("POST /v1/simulate", "simulate", rt.handleSimulate)
	add("POST /v1/predict:batch", "predict_batch", rt.fanoutBatch("/v1/predict:batch"))
	add("POST /v1/rate:batch", "rate_batch", rt.handleRateBatch)
	add("POST /v1/features:batch", "features_batch", rt.fanoutBatch("/v1/features:batch"))
	control("GET /healthz", "healthz", rt.handleHealthz)
	control("GET /readyz", "readyz", rt.handleReadyz)
	mux.Handle("GET /metrics", rt.metrics)
	return mux
}

// shardBudget derives the context shard calls run under: the request
// deadline minus a reserve for merging and writing the response, so a
// shard that eats the whole budget still leaves the router time to
// serve the partial result *within* the caller's deadline — the
// acceptance bar for degraded mode.
func (rt *Router) shardBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	remaining := time.Until(dl)
	reserve := remaining / 10
	if reserve < 5*time.Millisecond {
		reserve = 5 * time.Millisecond
	}
	if reserve > 250*time.Millisecond {
		reserve = 250 * time.Millisecond
	}
	if remaining > 2*reserve {
		return context.WithDeadline(ctx, dl.Add(-reserve))
	}
	return context.WithCancel(ctx)
}

// Handler returns the router's HTTP handler for embedding.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Ring exposes the routing ring (read-only) to in-process callers that
// want to predict placement: the tests' affinity assertions use it.
func (rt *Router) Ring() *Ring { return rt.ring }

// Listen binds addr (port 0 picks a free port).
func (rt *Router) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	rt.ln = ln
	return ln.Addr(), nil
}

// Serve runs the router on the listener from Listen until ctx is
// canceled (or the listener fails), probing shard health in the
// background, then drains: in-flight requests get up to DrainTimeout
// and the prober stops.
func (rt *Router) Serve(ctx context.Context) error {
	if rt.ln == nil {
		return fmt.Errorf("router: Serve called before Listen")
	}
	probeCtx, stopProbes := context.WithCancel(ctx)
	probeDone := make(chan struct{})
	go rt.probeLoop(probeCtx, probeDone)
	err := httpkit.Serve(ctx, httpkit.NewServer(rt.handler), rt.ln, rt.cfg.DrainTimeout)
	stopProbes()
	<-probeDone
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	rt.cfg.Logf("router: drained")
	return nil
}

// probeLoop keeps the per-shard health snapshot fresh. Each interval
// is independently jittered: multiple routers fronting the same fleet
// (or one router restarted in sync with its shards) must not
// phase-lock into synchronized probe bursts that all observe — and
// all react to — the same instant.
func (rt *Router) probeLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	rt.probeRound(ctx)
	timer := time.NewTimer(probeJitter(rt.cfg.ProbeEvery))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			rt.probeRound(ctx)
			timer.Reset(probeJitter(rt.cfg.ProbeEvery))
		}
	}
}

// probeJitter spreads a probe interval uniformly over [0.75, 1.25)×
// the configured cadence.
func probeJitter(every time.Duration) time.Duration {
	return every*3/4 + time.Duration(rand.Int63n(int64(every)/2+1))
}

// probeRound probes every shard's current routing target in parallel,
// publishes the snapshot, feeds the failure detector, and drives any
// failover cycles the detector opened — detect, verify, promote, and
// fence all happen on this loop, so "the probe noticed" and "the
// fleet healed" are the same cadence.
func (rt *Router) probeRound(ctx context.Context) {
	targets := rt.det.targets()
	epochs := rt.det.epochs()
	n := len(targets)
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	results, _ := pool.GatherCtx(pctx, n, n, func(i int) (probeResult, error) {
		return rt.client.probe(pctx, i, n, targets[i], epochs[i]), nil
	})
	cancel()
	var failing []int
	for i, pr := range results {
		if rt.det.observe(i, pr) {
			failing = append(failing, i)
		}
	}
	rt.probeMu.Lock()
	rt.probeRes = results
	rt.probeAt = time.Now()
	rt.probeMu.Unlock()
	rt.metrics.probes.Add(1)
	for _, i := range failing {
		rt.failoverShard(ctx, i)
	}
	rt.observeZombies(ctx)
}

// healthSnapshot returns the latest probe results, probing on demand
// if no round has run yet (a router embedded without Serve, or a
// readyz race at startup).
func (rt *Router) healthSnapshot() []probeResult {
	rt.probeMu.Lock()
	stale := rt.probeAt.IsZero()
	rt.probeMu.Unlock()
	if stale {
		rt.probeRound(context.Background())
	}
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	out := make([]probeResult, len(rt.probeRes))
	copy(out, rt.probeRes)
	age := time.Since(rt.probeAt).Seconds()
	for i := range out {
		out[i].AgeSeconds = age
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
}

// handleReadyz reports the router's view of the fleet. A fleet with
// every shard healthy is "ready"; with some shards down it is
// "degraded" but still 200 — global queries keep answering partials
// and the healthy shards' cascades keep serving, so traffic should
// keep routing; with no healthy shard it is 503 "unready".
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probes := rt.healthSnapshot()
	healthy := 0
	shards := make(map[string]probeResult, len(probes))
	for i, pr := range probes {
		if pr.Healthy {
			healthy++
		}
		shards[ShardName(i)] = pr
	}
	status, code := "ready", http.StatusOK
	switch {
	case healthy == 0:
		status, code = "unready", http.StatusServiceUnavailable
	case healthy < len(probes):
		status = "degraded"
	}
	httpkit.WriteJSON(w, code, map[string]any{
		"status":         status,
		"role":           "router",
		"ring_size":      rt.ring.Size(),
		"shards_healthy": healthy,
		"shards":         shards,
		// Supervision surface: per-slot failure-detector state, the
		// fencing epoch the router believes is current for each chain,
		// and any quarantined ex-primaries under observation.
		"auto_failover":    rt.cfg.AutoFailover,
		"failure_detector": rt.det.statusMap(),
	})
}

// handleCascade and handlePredict proxy cascade-scoped reads to the
// ring owner, verbatim: the shard's body (including its shard_id
// field on predictions) is the router's body.
func (rt *Router) handleCascade(w http.ResponseWriter, r *http.Request) {
	rt.proxyCascade(w, r, "")
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	rt.proxyCascade(w, r, "/predict")
}

func (rt *Router) proxyCascade(w http.ResponseWriter, r *http.Request, suffix string) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "cascade id %q is not an integer", r.PathValue("id"))
		return
	}
	owner := rt.ring.Owner(id)
	rep, err := rt.client.read(r.Context(), rt.shard(owner), fmt.Sprintf("/v1/cascades/%d%s", id, suffix))
	if err != nil {
		rt.shardFailed(owner, err)
		rt.writeShardUnreachable(w, r, owner, err)
		return
	}
	rt.metrics.proxied.Add(1)
	relay(w, rep)
}

// handleRate relays the (replicated) pairwise-rate lookup: every shard
// holds the full model, so any shard can answer; the ring picks a
// stable one per (u, v) for cache affinity and failover walks on.
func (rt *Router) handleRate(w http.ResponseWriter, r *http.Request) {
	u, v := r.URL.Query().Get("u"), r.URL.Query().Get("v")
	rt.relayReplicated(w, r, "rate:"+u+":"+v, http.MethodGet, "/v1/rate?"+r.URL.RawQuery, nil)
}

// handleSeeds relays seed selection. CELF's lazy-greedy argmax is a
// sequential chain over the *whole* node universe — each pick depends
// on all previous picks, so per-stripe seed sets do not merge into the
// global set. Every shard therefore computes the full deterministic
// answer (same model, same tie-breaks), and the router relays one
// complete answer instead of scatter-gathering: identical bytes to a
// single node, at 1/Nth the fleet compute of a broadcast.
func (rt *Router) handleSeeds(w http.ResponseWriter, r *http.Request) {
	k := r.URL.Query().Get("k")
	h := r.URL.Query().Get("horizon")
	rt.relayReplicated(w, r, "seeds:"+k+":"+h, http.MethodGet, "/v1/seeds?"+r.URL.RawQuery, nil)
}

// handleSimulate relays Monte Carlo scenario runs, which are
// non-decomposable the same way seeds are: the per-set reach
// distributions and win rates are deterministic per (generation,
// normalized spec) on any shard, so one complete answer is the global
// answer. The routing key hashes the body so identical specs keep
// hitting the same shard's scenario cache. Pure compute, so the POST
// is safe to retry against another shard.
func (rt *Router) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxRelayBytes, nil)
	if !ok {
		return
	}
	rt.relayReplicated(w, r, "simulate:"+strconv.FormatUint(hashKey(string(body)), 16),
		http.MethodPost, "/v1/simulate", body)
}

// relayReplicated forwards a replicated-read request to the shard the
// key hashes to, failing over around the ring until a shard answers.
// Any HTTP status is an answer (a 400 is the same 400 a single daemon
// would give); only transport failures walk on. All shards down is the
// router's one hard-unavailable case.
func (rt *Router) relayReplicated(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte) {
	n := len(rt.cfg.Shards)
	start := rt.ring.OwnerKey(key)
	var missing []string
	var firstErr error
	for off := 0; off < n; off++ {
		i := (start + off) % n
		var rep *reply
		var err error
		if method == http.MethodGet {
			rep, err = rt.client.read(r.Context(), rt.shard(i), path)
		} else {
			rep, err = rt.client.do(r.Context(), method, rt.shard(i).Primary, path, body)
		}
		if err != nil {
			rt.shardFailed(i, err)
			if firstErr == nil {
				firstErr = err
			}
			missing = append(missing, ShardName(i))
			if r.Context().Err() != nil {
				break // the budget is gone; stop walking the ring
			}
			continue
		}
		if off > 0 {
			rt.metrics.relayFailovers.Add(1)
		}
		rt.metrics.proxied.Add(1)
		relay(w, rep)
		return
	}
	httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":          fmt.Sprintf("no shard could answer: %v", firstErr),
		"reason":         "fleet_unavailable",
		"missing_shards": missing,
	})
}

// influencersResponse is the router's merged ranking envelope. The
// influencers array encodes byte-identically to a single daemon's (the
// same concrete type through the same encoder); the envelope adds the
// degraded-mode fields, omitted when the answer is complete.
type influencersResponse struct {
	Influencers   []core.Influencer `json:"influencers"`
	Cached        bool              `json:"cached"`
	Generation    uint64            `json:"generation"`
	Partial       bool              `json:"partial,omitempty"`
	MissingShards []string          `json:"missing_shards,omitempty"`
}

// handleInfluencers is the scatter-gather path: every shard ranks its
// own node stripe, the router merges the k-bounded per-shard rankings
// with the same comparator the compute plane uses (score desc, node id
// asc on ties), and the result is byte-identical to one daemon ranking
// the whole universe. The complete answer is cached for the TTL as one
// entry whatever k was: the order is strict and total, so the first k
// of a merged top-k' are the merged top-k for every k ≤ k', and only a
// k above what the live entry was gathered for fans out again. Partials
// never enter the cache, so the ranking heals the moment the missing
// shard returns.
func (rt *Router) handleInfluencers(w http.ResponseWriter, r *http.Request) {
	k, err := httpkit.QueryInt(r, "k", 10)
	if err != nil || k <= 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "parameter k must be a positive integer")
		return
	}
	val, hit, err := rt.cache.DoCover(r.Context(), "influencers", k, func() (any, bool, error) {
		resp, err := rt.gatherInfluencers(r.Context(), k)
		if err != nil {
			return nil, false, err
		}
		return resp, !resp.Partial, nil
	})
	rt.metrics.countCache(hit)
	if err != nil {
		if httpkit.CtxDone(err) {
			httpkit.WriteDeadline(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": err.Error(), "reason": "fleet_unavailable",
		})
		return
	}
	// The cached response is shared: copy the envelope, cut the ranking.
	resp := *(val.(*influencersResponse))
	resp.Cached = hit
	if k < len(resp.Influencers) {
		resp.Influencers = resp.Influencers[:k:k]
	}
	// A complete answer is the daemon's own envelope, through the
	// daemon's own encoder; the degraded-mode fields ride the reflective
	// writer.
	if resp.Partial {
		httpkit.WriteJSON(w, http.StatusOK, &resp)
		return
	}
	httpkit.WriteEncoded(w, http.StatusOK, &resp, true, func(b []byte) ([]byte, bool) {
		return httpkit.AppendRankingJSON(b, resp.Influencers, hit, resp.Generation)
	})
}

// gatherInfluencers fans the query out to every shard on the bounded
// pool and merges what came back. Missing shards (down, deadline, or
// malformed) degrade the result to a partial; only a fleet-wide miss
// is an error.
func (rt *Router) gatherInfluencers(ctx context.Context, k int) (*influencersResponse, error) {
	shardCtx, cancel := rt.shardBudget(ctx)
	defer cancel()
	type shardRanking struct {
		infs []core.Influencer
		gen  uint64
	}
	n := len(rt.cfg.Shards)
	path := "/v1/influencers?k=" + strconv.Itoa(k)
	answers, errs := pool.GatherCtx(shardCtx, n, n, func(i int) (shardRanking, error) {
		rep, err := rt.client.read(shardCtx, rt.shard(i), path)
		if err != nil {
			return shardRanking{}, err
		}
		if rep.status != http.StatusOK {
			return shardRanking{}, &shardStatusError{rep.status, rep.body}
		}
		// A shard ranks at most k, and no ranking entry fits in 40 bytes.
		room := make([]core.Influencer, 0, min(k, len(rep.body)/40))
		if infs, gen, ok := httpkit.ScanRanking(rep.body, room); ok {
			return shardRanking{infs: infs, gen: gen}, nil
		}
		var body struct {
			Influencers []core.Influencer `json:"influencers"`
			Generation  uint64            `json:"generation"`
		}
		if err := json.Unmarshal(rep.body, &body); err != nil {
			return shardRanking{}, fmt.Errorf("decoding shard ranking: %w", err)
		}
		return shardRanking{infs: body.Influencers, gen: body.Generation}, nil
	})
	rt.metrics.fanouts.Add(1)
	parts := make([][]core.Influencer, 0, n)
	var missing []string
	var gen uint64
	var firstErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			rt.shardFailed(i, errs[i])
			missing = append(missing, ShardName(i))
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		parts = append(parts, answers[i].infs)
		if answers[i].gen > gen {
			gen = answers[i].gen
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("all %d shards failed: %v", n, firstErr)
	}
	resp := &influencersResponse{
		Influencers:   core.MergeTopInfluencers(k, parts...),
		Generation:    gen,
		Partial:       len(missing) > 0,
		MissingShards: missing,
	}
	if resp.Partial {
		rt.metrics.partials.Add(1)
		rt.cfg.Logf("router: partial influencers answer (k=%d): missing %v", k, missing)
	}
	return resp, nil
}

// shardFailed records one failed shard exchange.
func (rt *Router) shardFailed(i int, err error) {
	rt.metrics.shardErrors.Add(ShardName(i), 1)
	rt.cfg.Logf("router: %s: %v", ShardName(i), err)
}

// writeShardUnreachable answers a single-shard request whose owner
// (and its follower, if any) could not be reached: 502, with the shard
// named so operators can go straight to the body.
func (rt *Router) writeShardUnreachable(w http.ResponseWriter, r *http.Request, shard int, err error) {
	status := http.StatusBadGateway
	if r.Context().Err() != nil {
		status = http.StatusServiceUnavailable
	}
	httpkit.WriteJSON(w, status, map[string]any{
		"error":          fmt.Sprintf("owning shard unreachable: %v", err),
		"reason":         "shard_unreachable",
		"missing_shards": []string{ShardName(shard)},
	})
}

// relay writes a buffered shard reply through verbatim, with the
// headers that are part of the answer: the content type, and the
// Retry-After of a shard shedding load.
func relay(w http.ResponseWriter, rep *reply) {
	if rep.contentType != "" {
		w.Header().Set("Content-Type", rep.contentType)
	}
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rep.body)))
	w.WriteHeader(rep.status)
	w.Write(rep.body) //nolint:errcheck // the response is already committed
}

// truncateBody bounds an error-path body excerpt.
func truncateBody(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
