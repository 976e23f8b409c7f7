package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"viralcast/internal/httpkit"
)

// handleEvents splits an ingest batch by ring ownership — each event
// goes to the shard that owns its cascade — fans the sub-batches out
// in parallel, and merges the shard responses back into one answer in
// the caller's coordinates. Each sub-batch is the caller's own bytes:
// one scan of the body finds every event's cascade id and where its
// object sits, and an owner is sent {"events":[...]} around exactly
// those ranges, so no float is parsed and printed again on the way. A
// shard that cannot take its sub-batch (down, deadline, or a non-200
// like a read-only 503) degrades the response to a partial: its events
// come back individually rejected with the cause, the shard is named in
// missing_shards, and everything the healthy shards accepted stays
// accepted. Ingestion is never retried against followers — a follower
// 409s writes by design, and a duplicate-looking retry hides real
// double-sends from the WAL.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	ws := workspacePool.Get().(*workspace)
	defer ws.release()
	body, ok := httpkit.ReadBody(w, r, maxRelayBytes, ws.body)
	if !ok {
		return
	}
	ws.body, ws.spans = body, ws.spans[:0]
	if ws.events, ok = httpkit.ScanEvents(body, ws.events[:0], &ws.spans); !ok {
		// Not the canonical envelope: the daemon's strict contract decides
		// (same shapes, same message), and what it accepts is re-encoded
		// canonically — ws.body becomes those objects back to back — so
		// there is one scatter path, not two.
		events, err := httpkit.DecodeEventsStrict(body)
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ws.events, ws.body, ws.spans = append(ws.events[:0], events...), ws.body[:0], ws.spans[:0]
		for _, ev := range events {
			enc, _ := json.Marshal(ev) //nolint:errcheck // a decoded event holds a finite time
			ws.spans = append(ws.spans, httpkit.Span{Lo: len(ws.body), Hi: len(ws.body) + len(enc)})
			ws.body = append(ws.body, enc...)
		}
	}
	if len(ws.events) == 0 {
		httpkit.WriteError(w, http.StatusBadRequest, "empty event batch")
		return
	}
	rt.split(ws, len(ws.events), func(i int) int { return ws.events[i].Cascade })
	ws.subBodies("events", func(b []byte, i int) []byte { return append(b, ws.spans[i].Of(ws.body)...) })
	rt.scatter(r.Context(), ws, "/v1/events")

	accepted := 0
	rejected := []httpkit.EventReject{}
	sizes := ws.sizes[:0]
	var missing []string
	for j, o := range ws.owners {
		index, call := ws.index[o], &ws.calls[j]
		var ack struct {
			Accepted int                   `json:"accepted"`
			Rejected []httpkit.EventReject `json:"rejected"`
			Sizes    map[int]int           `json:"sizes"`
		}
		err := call.err
		if err == nil {
			if err = json.Unmarshal(call.reply, &ack); err != nil {
				err = fmt.Errorf("decoding shard answer: %w", err)
			}
		}
		if err != nil {
			rt.shardFailed(o, err)
			missing = append(missing, ShardName(o))
			for _, orig := range index {
				rejected = append(rejected, httpkit.EventReject{
					Index: orig,
					Error: fmt.Sprintf("%s did not ingest: %v", ShardName(o), err),
				})
			}
			continue
		}
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
			sizes = append(sizes, httpkit.CascadeSize{ID: id, Size: size})
		}
	}
	ws.sizes = sizes
	if len(rejected) > 1 {
		sort.Slice(rejected, func(a, b int) bool { return rejected[a].Index < rejected[b].Index })
	}

	if len(missing) == 0 {
		httpkit.WriteEncoded(w, http.StatusOK, nil, true, func(b []byte) ([]byte, bool) {
			return httpkit.AppendAckJSON(b, accepted, rejected, sizes), true
		})
		return
	}
	sort.Strings(missing)
	rt.metrics.partials.Add(1)
	named := make(map[string]int, len(sizes))
	for _, cs := range sizes {
		named[strconv.Itoa(cs.ID)] = cs.Size
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{
		"accepted":       accepted,
		"rejected":       rejected,
		"sizes":          named,
		"partial":        true,
		"missing_shards": missing,
	})
}
