package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"viralcast/internal/httpkit"
	"viralcast/internal/pool"
	"viralcast/internal/wal"
)

// shardStatusError is a shard's non-200 answer: the shard was reached
// and refused, which callers may treat differently from a shard that
// never answered.
type shardStatusError struct {
	status int
	body   []byte
}

func (e *shardStatusError) Error() string {
	return fmt.Sprintf("shard answered %d: %s", e.status, truncateBody(e.body))
}

// workspace is one request's pooled scratch for the owner-split
// scatter-gather behind ingest and the cascade-scoped batches, which
// moves bytes, not values: the request is scanned once for each item's
// cascade id (and, for ingest, where each event's object sits in the
// body), each owner's sub-request is assembled from those ids or those
// very bytes, and each shard's answer is cut into slot ranges that are
// copied into the merged answer in caller order. Everything a response
// references is written out before the workspace returns to the pool.
type workspace struct {
	body   []byte         // the caller's request body
	ids    []int          // batches: the cascade id of each item
	events []wal.Event    // ingest: each event, for its cascade id
	spans  []httpkit.Span // ingest: each event's object in body; batches: every slot of every reply
	sizes  []httpkit.CascadeSize
	owners []int       // the shards involved, in first-seen order
	index  [][]int     // per ring slot: the caller positions of its items, in sub-batch order
	calls  []shardCall // per involved shard, beside owners
	slots  []itemSlot  // batches: per item, where its slot's bytes are
}

// shardCall is one owner's exchange: the sub-request it is sent and the
// answer (or the failure) that came back.
type shardCall struct {
	body  []byte // never pooled: see subBodies
	reply []byte
	err   error
}

// itemSlot locates one merged slot: a range of calls[call].reply.
type itemSlot struct {
	call int
	span httpkit.Span
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// release returns the workspace to the pool unless one of its buffers
// ballooned past the response-buffer retention cap.
func (ws *workspace) release() {
	if cap(ws.body) > httpkit.MaxPooledResponseBuf {
		return
	}
	for _, call := range ws.calls[:cap(ws.calls)] {
		if cap(call.reply) > httpkit.MaxPooledResponseBuf {
			return
		}
	}
	workspacePool.Put(ws)
}

// split groups n items by the ring owner of the cascade each belongs
// to, filling owners and index and readying one call per owner.
func (rt *Router) split(ws *workspace, n int, cascadeOf func(i int) int) {
	if len(ws.index) != rt.ring.Size() {
		ws.index = make([][]int, rt.ring.Size())
	}
	for o := range ws.index {
		ws.index[o] = ws.index[o][:0]
	}
	ws.owners = ws.owners[:0]
	for i := 0; i < n; i++ {
		o := rt.ring.Owner(cascadeOf(i))
		if len(ws.index[o]) == 0 {
			ws.owners = append(ws.owners, o)
		}
		ws.index[o] = append(ws.index[o], i)
	}
	if short := len(ws.owners) - cap(ws.calls); short > 0 { // keep the reply buffers already grown
		ws.calls = append(ws.calls[:cap(ws.calls)], make([]shardCall, short)...)
	}
	ws.calls = ws.calls[:len(ws.owners)]
}

// subBodies renders each owner's sub-request {"<field>":[item,...]},
// items through item. The bodies share one allocation made here and
// left to the collector, deliberately outside the pool: net/http may
// still be writing a request body after the exchange has returned (a
// shard can answer before it has read the request through), so these
// bytes must never be handed to another request.
func (ws *workspace) subBodies(field string, item func(b []byte, i int) []byte) {
	arena := make([]byte, 0, len(ws.body)+len(ws.owners)*(len(field)+8))
	for j, o := range ws.owners {
		start := len(arena)
		arena = append(append(append(arena, `{"`...), field...), `":[`...)
		for k, i := range ws.index[o] {
			if k > 0 {
				arena = append(arena, ',')
			}
			arena = item(arena, i)
		}
		arena = append(arena, "]}"...)
		ws.calls[j].body = arena[start:len(arena):len(arena)]
	}
}

// scatter POSTs every involved owner its sub-request at path, all of
// them in flight at once under the shard budget, and leaves each answer
// or failure in its call; a non-200 is a *shardStatusError. The budget
// is derived here, once, for every scattered endpoint: a stalled shard
// costs the request its reserve-trimmed deadline and no more.
func (rt *Router) scatter(ctx context.Context, ws *workspace, path string) {
	ctx, cancel := rt.shardBudget(ctx)
	defer cancel()
	n := len(ws.owners)
	_, errs := pool.GatherCtx(ctx, n, n, func(j int) (struct{}, error) {
		call := &ws.calls[j]
		rep, err := rt.client.doEpoch(ctx, http.MethodPost, rt.shard(ws.owners[j]).Primary, path, call.body, 0, call.reply)
		if err != nil {
			return struct{}{}, err
		}
		call.reply = rep.body
		if rep.status != http.StatusOK {
			return struct{}{}, &shardStatusError{rep.status, rep.body}
		}
		return struct{}{}, nil
	})
	for j := range errs {
		ws.calls[j].err = errs[j]
	}
}
