package infer

import (
	"sort"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/embed"
	"viralcast/internal/mergetree"
	"viralcast/internal/slpa"
)

// LevelProfile records how much compute each community task at one level
// of the hierarchical algorithm consumed. The speedup experiments replay
// these task durations through a list scheduler to obtain the wall-clock
// a w-worker machine would need — a deterministic measurement that does
// not depend on how many physical cores the benchmarking host has.
type LevelProfile struct {
	Communities int
	// TaskDurations holds the measured optimization time of every
	// community that had work at this level.
	TaskDurations []time.Duration
}

// HierarchicalProfiled is Hierarchical on one worker — so no task's
// clock includes time spent descheduled behind another — with the
// trace's per-community task durations as one LevelProfile per level.
func HierarchicalProfiled(cs []*cascade.Cascade, n int, base *slpa.Partition, cfg Config, q int, policy mergetree.Policy) (*embed.Model, []LevelProfile, error) {
	m, tr, err := Hierarchical(cs, n, base, cfg, ParallelOptions{Workers: 1, Q: q, Policy: policy})
	if err != nil {
		return nil, nil, err
	}
	profiles := make([]LevelProfile, len(tr.Levels))
	for i, l := range tr.Levels {
		profiles[i] = LevelProfile{Communities: l.Communities, TaskDurations: l.TaskDurations}
	}
	return m, profiles, nil
}

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

// ScheduleCost models the total runtime of a profiled hierarchical run
// on `workers` cores: the sum over levels of that level's makespan plus
// a per-level synchronization cost that grows linearly with the worker
// count (the barrier/merge overhead the paper cites as the reason
// speedup flattens between 32 and 64 cores).
func ScheduleCost(profiles []LevelProfile, workers int, barrierCost time.Duration) time.Duration {
	var total time.Duration
	for _, p := range profiles {
		total += Makespan(p.TaskDurations, workers)
		if workers > 1 {
			total += time.Duration(workers) * barrierCost
		}
	}
	return total
}
