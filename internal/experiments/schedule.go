package experiments

import (
	"slices"
	"time"

	"viralcast/internal/infer"
)

// infectionSweepCost is the modeled time of one infection sweep, the
// unit of infer.LevelStats.TaskWork: an EM epoch's cost for one
// infection of a community task, row copies folded in. Calibrated once
// from the timed community tasks of one-worker fits of Figures 10 and 11
// at -scale small and default on a shared 2-vCPU amd64 VM, Go 1.24:
// median 44.8 ns over 12 runs, 34–51 but for one cold 71 (EXPERIMENTS.md,
// "Figures 10–13 count work"). The host only scales the time axis.
const infectionSweepCost = 45 * time.Nanosecond

// Makespan is the completion time, in work units, of the given
// independent tasks on `workers` identical workers under LPT
// (longest-processing-time first) list scheduling — the schedule a
// work-stealing goroutine pool converges to for independent community
// tasks.
func Makespan(tasks []int, workers int) int {
	sorted := slices.Clone(tasks)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	load := make([]int, max(workers, 1))
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
	return slices.Max(load)
}

// ScheduleCost models the runtime of a hierarchical fit on `workers`
// cores from its trace's levels: the sum over levels of that level's
// makespan at infectionSweepCost a unit, plus a per-level
// synchronization cost that grows linearly with the worker count (the
// barrier/merge overhead the paper cites as the reason speedup flattens
// between 32 and 64 cores). The work counts are the same at any worker
// count, so the model is the schedule a w-worker machine would run
// whatever the cores of the host that fitted.
func ScheduleCost(levels []infer.LevelStats, workers int, barrierCost time.Duration) time.Duration {
	var total time.Duration
	for _, l := range levels {
		total += time.Duration(Makespan(l.TaskWork, workers)) * infectionSweepCost
		if workers > 1 {
			total += time.Duration(workers) * barrierCost
		}
	}
	return total
}
