// Package pool provides the bounded-concurrency primitives the parallel
// inference uses: run n independent tasks on at most w workers, with
// deterministic result placement, first-error propagation, and panic
// containment. It is the Go-native equivalent of the per-community
// process pool in the paper's Algorithm 1 — a barrier at the end of Run
// is the algorithm's explicit synchronization point.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// Run executes task(0..n-1) with at most `workers` invocations in flight
// at once and waits for all of them (the barrier). The first error
// encountered is returned; remaining tasks still run to completion so
// the caller never observes a half-synchronized state. A panicking task
// is converted into an error rather than tearing down the process.
func Run(workers, n int, task func(i int) error) error {
	return RunCtx(context.Background(), workers, n, task)
}

// RunCtx is Run with cancellation: once ctx is done, no new tasks are
// scheduled; tasks already in flight run to completion (they observe ctx
// themselves if they want to stop early), and the barrier still holds.
// If the context caused the early stop, ctx.Err() is returned even when
// a task also failed — the caller asked to stop, and that decision
// outranks whatever the doomed tasks reported on the way down.
func RunCtx(ctx context.Context, workers, n int, task func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	sem := make(chan struct{}, workers)
	canceled := false
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		// Block for a worker slot, but wake up if the run is canceled
		// while every slot is busy.
		select {
		case <-ctx.Done():
			canceled = true
		case sem <- struct{}{}:
		}
		if canceled {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					// The stack makes a worker crash diagnosable after the
					// goroutine that produced it is long gone.
					record(fmt.Errorf("pool: task %d panicked: %v\n%s", i, r, debug.Stack()))
				}
			}()
			record(task(i))
		}(i)
	}
	wg.Wait()
	if canceled || ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// ChunkedCtx runs task over contiguous index ranges [lo, hi) covering
// [0, n), at most `workers` ranges in flight, with RunCtx's barrier,
// cancellation, and panic semantics. It exists for workloads whose unit
// of work is too small to schedule one goroutine each — Monte Carlo
// trials, per-row scans — where per-task channel traffic would dominate
// the work itself. Chunks are fixed-size and deterministic, so a task
// writing results by index produces identical placement at any worker
// count. chunk <= 0 defaults to ceil(n/workers) (one range per worker).
func ChunkedCtx(ctx context.Context, workers, n, chunk int, task func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if chunk <= 0 {
		chunk = (n + workers - 1) / workers
	}
	chunks := (n + chunk - 1) / chunk
	return RunCtx(ctx, workers, chunks, func(c int) error {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return task(lo, hi)
	})
}

// GatherCtx runs task(0..n-1) with at most `workers` in flight and
// collects per-index results AND per-index errors — no first-error
// short-circuit, no discarding of sibling results. It is the fan-out
// primitive for scatter-gather serving: a router querying N shards
// wants every shard's answer that arrived plus a precise record of
// which shards failed, so it can merge the successes into a partial
// result instead of throwing the whole fan-out away because one shard
// was down. Panics are contained into that index's error slot. Once
// ctx is done no new tasks are scheduled; unscheduled indexes carry
// ctx.Err() so the caller can tell "never attempted" from "attempted
// and failed" only by the error value, and the barrier still holds for
// the tasks already in flight.
func GatherCtx[T any](ctx context.Context, workers, n int, task func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n <= 0 {
		return out, errs
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	i := 0
	for ; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("pool: task %d panicked: %v\n%s", i, r, debug.Stack())
				}
			}()
			out[i], errs[i] = task(i)
		}(i)
	}
	for j := i; j < n; j++ {
		errs[j] = ctx.Err()
	}
	wg.Wait()
	return out, errs
}
