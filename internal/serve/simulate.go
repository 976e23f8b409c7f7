package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"viralcast/internal/embed"
	"viralcast/internal/httpkit"
	"viralcast/internal/scenario"
)

// simulateResponse wraps the engine's result with the serving envelope
// the other compute endpoints use: whether the answer came from cache
// and which model generation produced it.
type simulateResponse struct {
	*scenario.Result
	Cached     bool   `json:"cached"`
	Generation uint64 `json:"generation"`
}

// handleSimulate runs a Monte Carlo what-if campaign against the live
// generation's embeddings: the POSTed scenario.Spec names candidate
// seed sets, a horizon, and a replication count, and the answer is the
// per-set reach distribution plus pairwise win rates. Results are
// deterministic per (generation, normalized spec), which is what makes
// them cacheable: the key is the canonical spec hash joined with the
// generation, so identical questions — however the JSON was spelled —
// collapse into one singleflighted computation until the model moves.
// The cap, the admission class, and the deadline checks between trials
// keep an expensive simulation from starving the rest of the daemon.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxBodyBytes, nil)
	if !ok {
		return
	}
	var spec scenario.Spec
	if err := httpkit.DecodeStrict(body, &spec); err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "scenario spec: %v", err)
		return
	}
	cur := s.current()
	emb := cur.sys.Sys.Embeddings
	if emb == nil {
		httpkit.WriteError(w, http.StatusServiceUnavailable, "current generation has no embeddings to simulate against")
		return
	}
	norm, err := spec.Normalize(cur.sys.Sys.N)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if total := norm.Trials * len(norm.SeedSets); total > simulateMaxTrials {
		httpkit.WriteError(w, http.StatusBadRequest,
			"%d total trials (%d trials x %d seed sets) exceeds the daemon's limit %d; lower trials or split the request",
			total, norm.Trials, len(norm.SeedSets), simulateMaxTrials)
		return
	}
	key := "simulate:" + norm.Hash() + ":gen=" + strconv.FormatUint(cur.gen, 10)
	// A deadline that fires mid-batch discards the engine's partial work
	// and — errors are never cached — leaves nothing of the attempt
	// behind.
	res, hit, ok := cachedCompute(s, w, r, key, 0, func() (*scenario.Result, error) {
		return s.runScenario(r.Context(), emb, norm)
	})
	if !ok {
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, &simulateResponse{
		Result:     res,
		Cached:     hit,
		Generation: cur.gen,
	})
}

// runScenario executes one uncached scenario batch with the metrics
// bookkeeping: the active gauge brackets the run, and only completed
// batches feed the trial counter and the latency ring (an abandoned
// batch has no meaningful latency).
func (s *Server) runScenario(ctx context.Context, emb *embed.Model, spec scenario.Spec) (*scenario.Result, error) {
	eng, err := scenario.New(emb, 0)
	if err != nil {
		return nil, err
	}
	s.metrics.scenarioActive.Add(1)
	defer s.metrics.scenarioActive.Add(-1)
	start := time.Now()
	res, err := eng.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	s.metrics.scenarioRuns.Add(1)
	s.metrics.scenarioTrials.Add(int64(res.TotalTrials))
	s.metrics.scenarioLat.observe(time.Since(start))
	return res, nil
}
