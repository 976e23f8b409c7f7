package router

import (
	"fmt"
	"net/http"
	"sort"

	"viralcast/internal/httpkit"
)

// event mirrors the daemon's ingest wire format (internal/serve.Event).
type event struct {
	Cascade int     `json:"cascade"`
	Node    int     `json:"node"`
	Time    float64 `json:"time"`
}

// eventReject mirrors the daemon's per-event rejection record; Index
// is always in the *caller's* batch coordinates after merging.
type eventReject struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// handleEvents splits an ingest batch by ring ownership — each event
// goes to the shard that owns its cascade — fans the sub-batches out
// in parallel, and merges the shard responses back into one answer in
// the caller's coordinates. A shard that cannot take its sub-batch
// (down, deadline, or a non-200 like a read-only 503) degrades the
// response to a partial: its events come back individually rejected
// with the cause, the shard is named in missing_shards, and everything
// the healthy shards accepted stays accepted. Ingestion is never
// retried against followers — a follower 409s writes by design, and a
// duplicate-looking retry hides real double-sends from the WAL.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxRelayBytes, nil)
	if !ok {
		return
	}
	events, err := decodeEventBatch(body)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(events) == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "empty event batch")
		return
	}

	type shardAck struct {
		Accepted int            `json:"accepted"`
		Rejected []eventReject  `json:"rejected"`
		Sizes    map[string]int `json:"sizes"`
	}
	owners, subIndex, replies, errs := scatter[shardAck](r.Context(), rt, events,
		func(ev event) int { return ev.Cascade }, "events", "/v1/events")

	accepted := 0
	rejected := []eventReject{}
	sizes := make(map[string]int)
	var missing []string
	for j, o := range owners {
		index := subIndex[o]
		if errs[j] != nil {
			rt.shardFailed(o, errs[j])
			missing = append(missing, ShardName(o))
			for _, orig := range index {
				rejected = append(rejected, eventReject{
					Index: orig,
					Error: fmt.Sprintf("%s did not ingest: %v", ShardName(o), errs[j]),
				})
			}
			continue
		}
		ack := replies[j]
		accepted += ack.Accepted
		for _, rej := range ack.Rejected {
			if rej.Index < 0 || rej.Index >= len(index) {
				rej.Error = fmt.Sprintf("%s (sub-batch index %d out of range)", rej.Error, rej.Index)
				rej.Index = -1
			} else {
				rej.Index = index[rej.Index]
			}
			rejected = append(rejected, rej)
		}
		for id, size := range ack.Sizes {
			sizes[id] = size
		}
	}
	sort.Slice(rejected, func(a, b int) bool { return rejected[a].Index < rejected[b].Index })
	sort.Strings(missing)

	resp := map[string]any{
		"accepted": accepted,
		"rejected": rejected,
		"sizes":    sizes,
	}
	if len(missing) > 0 {
		rt.metrics.partials.Add(1)
		resp["partial"] = true
		resp["missing_shards"] = missing
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}

// decodeEventBatch accepts the daemon's two body shapes — a batch
// envelope or one bare event — and rejects unknown fields the same
// way, so the router's contract matches a direct daemon's.
func decodeEventBatch(body []byte) ([]event, error) {
	var batch struct {
		Events []event `json:"events"`
	}
	if err := httpkit.DecodeStrict(body, &batch); err == nil && batch.Events != nil {
		return batch.Events, nil
	}
	var one event
	if err := httpkit.DecodeStrict(body, &one); err != nil {
		return nil, fmt.Errorf("body must be {\"events\": [...]} or a single {cascade, node, time} object")
	}
	return []event{one}, nil
}
