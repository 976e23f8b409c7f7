package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"viralcast/internal/httpkit"
)

// The routed batched data plane. predict:batch and features:batch are
// cascade-scoped like ingest, so they split by ring ownership: each
// shard gets one sub-batch of the cascades it owns, the sub-answers
// come back in sub-batch coordinates, and the router re-indexes every
// slot into the caller's coordinates — the same machinery handleEvents
// uses. A failed shard degrades its items to per-item error slots
// naming the shard (partial, never a request error) while every other
// shard's answers stand. rate:batch is replicated work — any shard
// holds the full model — so it relays whole to one body-affine shard.

// routerBatchItem is the error slot the router itself fills for items
// whose owning shard did not answer; successful slots relay the
// shard's bytes untouched.
type routerBatchItem struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// shardBatchEnvelope decodes just enough of a shard's batch answer to
// re-index it: the raw per-item slots plus the tallies.
type shardBatchEnvelope struct {
	Results    []json.RawMessage `json:"results"`
	Errors     int               `json:"errors"`
	CacheHits  int               `json:"cache_hits"`
	Generation uint64            `json:"generation"`
}

// mergedBatchResponse is the router's merged envelope: per-item slots
// in caller coordinates, fleet-wide tallies, and the degraded-mode
// fields omitted when the answer is complete. shard_id and epoch are
// per-shard facts and live inside each slot's result, not here.
type mergedBatchResponse struct {
	Results       []any    `json:"results"`
	Count         int      `json:"count"`
	Errors        int      `json:"errors"`
	CacheHits     int      `json:"cache_hits"`
	Generation    uint64   `json:"generation"`
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// handleRateBatch relays the batched pairwise-rate lookup whole: every
// shard can answer it, and splitting a replicated computation would
// only multiply request overhead. The routing key hashes the body so
// identical batches keep shard affinity.
func (rt *Router) handleRateBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxRelayBytes, nil)
	if !ok {
		return
	}
	rt.relayReplicated(w, r, "rate_batch:"+strconv.FormatUint(hashKey(string(body)), 16),
		http.MethodPost, "/v1/rate:batch", body)
}

// fanoutBatch is the owner-split scatter-gather for the cascade-scoped
// batch endpoint at path.
func (rt *Router) fanoutBatch(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := httpkit.ReadBody(w, r, maxRelayBytes, nil)
		if !ok {
			return
		}
		var req struct {
			Cascades []int `json:"cascades"`
		}
		// The daemon's strict body contract, mirrored.
		if err := httpkit.DecodeStrict(body, &req); err != nil || req.Cascades == nil {
			httpkit.WriteError(w, http.StatusBadRequest, "body must be {\"cascades\": [id, ...]}")
			return
		}
		ids := req.Cascades
		if len(ids) == 0 {
			httpkit.WriteError(w, http.StatusBadRequest, "empty cascade batch")
			return
		}

		shardCtx, cancel := rt.shardBudget(r.Context())
		defer cancel()
		owners, subIndex, replies, errs := scatter[shardBatchEnvelope](shardCtx, rt, ids,
			func(id int) int { return id }, "cascades", path)
		rt.metrics.fanouts.Add(1)

		merged := mergedBatchResponse{
			Results: make([]any, len(ids)),
			Count:   len(ids),
		}
		for j, o := range owners {
			index, env, err := subIndex[o], replies[j], errs[j]
			if err == nil && len(env.Results) != len(index) {
				err = fmt.Errorf("shard answered %d slots for %d cascades", len(env.Results), len(index))
			}
			if err != nil {
				// A shard that answered 4xx is not missing: it refused this
				// sub-batch (over its -batch-max, say), and every item in it
				// earns the shard's own status and message. Only a shard that
				// did not answer degrades the envelope to a partial.
				slot := routerBatchItem{
					Status: http.StatusBadGateway,
					Error:  fmt.Sprintf("%s did not answer: %v", ShardName(o), err),
				}
				var refused *shardStatusError
				if errors.As(err, &refused) && refused.status/100 == 4 {
					var reply struct {
						Error string `json:"error"`
					}
					if json.Unmarshal(refused.body, &reply) != nil || reply.Error == "" {
						reply.Error = truncateBody(refused.body)
					}
					slot = routerBatchItem{Status: refused.status, Error: reply.Error}
				} else {
					rt.shardFailed(o, err)
					merged.MissingShards = append(merged.MissingShards, ShardName(o))
				}
				for _, orig := range index {
					merged.Results[orig] = slot
				}
				merged.Errors += len(index)
				continue
			}
			for k, slot := range env.Results {
				merged.Results[index[k]] = slot
			}
			merged.Errors += env.Errors
			merged.CacheHits += env.CacheHits
			if env.Generation > merged.Generation {
				merged.Generation = env.Generation
			}
		}
		sort.Strings(merged.MissingShards)
		if len(merged.MissingShards) > 0 {
			rt.metrics.partials.Add(1)
			merged.Partial = true
		}
		httpkit.WriteJSON(w, http.StatusOK, &merged)
	}
}
