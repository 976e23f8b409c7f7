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
// whose owning shard did not answer; successful slots are the shard's
// bytes, untouched.
type routerBatchItem struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
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
// batch endpoint at path. The merged envelope is compact, like the shard
// envelopes it is spliced from — {"results":[...],"count","errors",
// "cache_hits","generation"} and, on a degraded answer only, "partial"
// and "missing_shards"; shard_id and epoch are per-shard facts and live
// inside each slot's result — and every slot in it is byte for byte the
// owning shard's.
func (rt *Router) fanoutBatch(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ws := workspacePool.Get().(*workspace)
		defer ws.release()
		body, ok := httpkit.ReadBody(w, r, maxRelayBytes, ws.body)
		if !ok {
			return
		}
		ws.body = body
		var err error
		if ws.ids, err = httpkit.DecodeCascades(body, ws.ids); err != nil { // the daemon's body contract, shared
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ids := ws.ids
		if len(ids) == 0 {
			httpkit.WriteError(w, http.StatusBadRequest, "empty cascade batch")
			return
		}
		rt.split(ws, len(ids), func(i int) int { return ids[i] })
		ws.subBodies("cascades", func(b []byte, i int) []byte { return strconv.AppendInt(b, int64(ids[i]), 10) })
		rt.scatter(r.Context(), ws, path)
		rt.metrics.fanouts.Add(1)

		if cap(ws.slots) < len(ids) {
			ws.slots = make([]itemSlot, len(ids))
		}
		ws.slots, ws.spans = ws.slots[:len(ids)], ws.spans[:0]
		var total httpkit.BatchTallies
		var missing []string
		for j, o := range ws.owners {
			index, call := ws.index[o], &ws.calls[j]
			first, tallies, err := len(ws.spans), httpkit.BatchTallies{}, call.err
			if err == nil {
				ws.spans, tallies, err = splitReply(call, ws.spans)
			}
			if got := len(ws.spans) - first; err == nil && got != len(index) {
				err = fmt.Errorf("shard answered %d slots for %d cascades", got, len(index))
			}
			if err != nil {
				// A shard that answered 4xx is not missing: it refused this
				// sub-batch (over its batch cap of 1024, say), and every item in it
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
					missing = append(missing, ShardName(o))
				}
				// The one error slot takes the failed reply's place, so every
				// merged slot, the router's own included, is a range of a reply.
				enc, _ := json.Marshal(slot) //nolint:errcheck // an int and a string always marshal
				call.reply = append(call.reply[:0], enc...)
				for _, orig := range index {
					ws.slots[orig] = itemSlot{j, httpkit.Span{Hi: len(enc)}}
				}
				total.Errors += len(index)
				continue
			}
			for k, orig := range index {
				ws.slots[orig] = itemSlot{j, ws.spans[first+k]}
			}
			total.Errors += tallies.Errors
			total.CacheHits += tallies.CacheHits
			total.Generation = max(total.Generation, tallies.Generation)
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			rt.metrics.partials.Add(1)
		}
		httpkit.WriteEncoded(w, http.StatusOK, nil, false, func(b []byte) ([]byte, bool) {
			return appendMergedBatchJSON(b, ws, total, missing), true
		})
	}
}

// splitReply appends the slot spans of a shard's 200 batch answer to
// spans. Validity first, as the reflective decode this replaces checked
// it: the splitter only balances brackets. An answer the splitter
// refuses (not canonical, or not JSON at all) is decoded reflectively,
// so what merges and every failure message are encoding/json's; its
// slots, compacted as the reflective merge wrote them, then replace the
// reply so they are spans like any other.
func splitReply(call *shardCall, spans []httpkit.Span) ([]httpkit.Span, httpkit.BatchTallies, error) {
	if json.Valid(call.reply) {
		if split, tallies, ok := httpkit.SplitBatchEnvelope(call.reply, spans); ok {
			return split, tallies, nil
		}
	}
	var env struct {
		Results    []json.RawMessage `json:"results"`
		Errors     int               `json:"errors"`
		CacheHits  int               `json:"cache_hits"`
		Generation uint64            `json:"generation"`
	}
	if err := json.Unmarshal(call.reply, &env); err != nil {
		return spans, httpkit.BatchTallies{}, fmt.Errorf("decoding shard answer: %w", err)
	}
	call.reply = call.reply[:0]
	for _, raw := range env.Results {
		slot, _ := json.Marshal(raw) //nolint:errcheck // Unmarshal just validated it
		spans = append(spans, httpkit.Span{Lo: len(call.reply), Hi: len(call.reply) + len(slot)})
		call.reply = append(call.reply, slot...)
	}
	return spans, httpkit.BatchTallies{Errors: env.Errors, CacheHits: env.CacheHits, Generation: env.Generation}, nil
}

// appendMergedBatchJSON splices the merged envelope: every item's slot
// bytes in caller order, then the fleet-wide tallies.
func appendMergedBatchJSON(b []byte, ws *workspace, total httpkit.BatchTallies, missing []string) []byte {
	b = append(b, `{"results":[`...)
	for i, slot := range ws.slots {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, slot.span.Of(ws.calls[slot.call].reply)...)
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(len(ws.slots)), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(total.Errors), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(total.CacheHits), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, total.Generation, 10)
	for i, name := range missing {
		if i == 0 {
			b = append(b, `,"partial":true,"missing_shards":[`...)
		} else {
			b = append(b, ',')
		}
		b = httpkit.AppendStringJSON(b, name)
	}
	if len(missing) > 0 {
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}
