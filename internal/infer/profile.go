package infer

import (
	"sort"
	"time"
)

// Makespan computes the completion time of the given independent tasks
// on `workers` identical workers under LPT (longest-processing-time
// first) list scheduling — the schedule a work-stealing goroutine pool
// converges to for independent community tasks.
func Makespan(tasks []time.Duration, workers int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	if workers > len(sorted) {
		workers = len(sorted)
	}
	load := make([]time.Duration, workers)
	for _, t := range sorted {
		// Assign to the least-loaded worker.
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		load[best] += t
	}
	var max time.Duration
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// ScheduleCost models the total runtime of a hierarchical run on
// `workers` cores from its trace's levels: the sum over levels of that
// level's makespan plus a per-level synchronization cost that grows
// linearly with the worker count (the barrier/merge overhead the paper
// cites as the reason speedup flattens between 32 and 64 cores).
// Replaying the measured task durations through a list scheduler gives
// the wall-clock a w-worker machine would need, whatever the number of
// physical cores the run had; take them from a one-worker run, so no
// task's clock includes time spent descheduled behind another.
func ScheduleCost(levels []LevelStats, workers int, barrierCost time.Duration) time.Duration {
	var total time.Duration
	for _, l := range levels {
		total += Makespan(l.TaskDurations, workers)
		if workers > 1 {
			total += time.Duration(workers) * barrierCost
		}
	}
	return total
}
