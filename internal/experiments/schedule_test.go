package experiments

import (
	"testing"
	"time"

	"viralcast/internal/infer"
)

func TestMakespan(t *testing.T) {
	tasks := []int{4, 3, 2, 1}
	if got := Makespan(tasks, 1); got != 10 {
		t.Fatalf("1 worker makespan = %v, want 10", got)
	}
	// LPT with 2 workers: 4+1=5, 3+2=5 -> makespan 5.
	if got := Makespan(tasks, 2); got != 5 {
		t.Fatalf("2 worker makespan = %v, want 5", got)
	}
	// More workers than tasks: bounded by the longest task.
	if got := Makespan(tasks, 10); got != 4 {
		t.Fatalf("10 worker makespan = %v, want 4", got)
	}
	if got := Makespan(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v", got)
	}
	if got := Makespan(tasks, 0); got != 10 {
		t.Fatalf("workers=0 must clamp to 1, got %v", got)
	}
	if tasks[0] != 4 || tasks[3] != 1 {
		t.Fatalf("Makespan reordered its input: %v", tasks)
	}
}

func TestMakespanMonotoneInWorkers(t *testing.T) {
	tasks := []int{7, 5, 5, 3, 2, 2, 1, 1}
	prev := Makespan(tasks, 1)
	for w := 2; w <= 8; w++ {
		cur := Makespan(tasks, w)
		if cur > prev {
			t.Fatalf("makespan increased with more workers: %v -> %v at w=%d", prev, cur, w)
		}
		prev = cur
	}
}

func TestScheduleCost(t *testing.T) {
	levels := []infer.LevelStats{
		{Communities: 4, TaskWork: []int{4, 3, 2, 1}},
		{Communities: 2, TaskWork: []int{5, 5}},
	}
	// 1 worker, no barrier: 10 + 10 units.
	if got := ScheduleCost(levels, 1, time.Nanosecond); got != 20*infectionSweepCost {
		t.Fatalf("sequential cost = %v, want %v", got, 20*infectionSweepCost)
	}
	// 2 workers, zero barrier: 5 + 5 units.
	if got := ScheduleCost(levels, 2, 0); got != 10*infectionSweepCost {
		t.Fatalf("2-worker cost = %v, want %v", got, 10*infectionSweepCost)
	}
	// Barrier cost scales with workers and levels.
	base := ScheduleCost(levels, 2, 0)
	withBarrier := ScheduleCost(levels, 2, 3)
	if withBarrier != base+2*2*3 {
		t.Fatalf("barrier accounting wrong: %v vs base %v", withBarrier, base)
	}
}
