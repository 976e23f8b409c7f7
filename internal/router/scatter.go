package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"viralcast/internal/pool"
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

// scatter is the owner-split scatter-gather behind ingest and the
// cascade-scoped batch endpoints. It groups items by the ring owner of
// the cascade each belongs to, POSTs every owner its sub-batch as
// {field: [...]} at path — all owners in flight at once — and decodes
// each 200 into an A. owners lists the shards involved in first-seen
// order, with replies and errs lined up beside it; a non-200 comes back
// as a *shardStatusError. index[o] maps shard o's sub-batch coordinates
// back to positions in items, which is how callers re-index an answer.
func scatter[A, T any](ctx context.Context, rt *Router, items []T, cascadeOf func(T) int, field, path string) (owners []int, index [][]int, replies []A, errs []error) {
	sub := make([][]T, rt.ring.Size())
	index = make([][]int, rt.ring.Size())
	for i, it := range items {
		o := rt.ring.Owner(cascadeOf(it))
		if sub[o] == nil {
			owners = append(owners, o)
		}
		sub[o] = append(sub[o], it)
		index[o] = append(index[o], i)
	}
	replies, errs = pool.GatherCtx(ctx, len(owners), len(owners), func(j int) (ack A, err error) {
		o := owners[j]
		payload, err := json.Marshal(map[string]any{field: sub[o]})
		if err != nil {
			return ack, err
		}
		rep, err := rt.client.do(ctx, http.MethodPost, rt.shard(o).Primary, path, payload)
		if err != nil {
			return ack, err
		}
		if rep.status != http.StatusOK {
			return ack, &shardStatusError{rep.status, rep.body}
		}
		if err := json.Unmarshal(rep.body, &ack); err != nil {
			return ack, fmt.Errorf("decoding shard answer: %w", err)
		}
		return ack, nil
	})
	return owners, index, replies, errs
}
