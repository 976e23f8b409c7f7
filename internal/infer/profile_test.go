package infer

import (
	"testing"
	"time"

	"viralcast/internal/mergetree"
	"viralcast/internal/slpa"
)

func TestMakespan(t *testing.T) {
	tasks := []time.Duration{4, 3, 2, 1} // units
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
}

func TestMakespanMonotoneInWorkers(t *testing.T) {
	tasks := []time.Duration{7, 5, 5, 3, 2, 2, 1, 1}
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
	levels := []LevelStats{
		{Communities: 4, TaskDurations: []time.Duration{4, 3, 2, 1}},
		{Communities: 2, TaskDurations: []time.Duration{5, 5}},
	}
	// 1 worker, no barrier: 10 + 10 = 20.
	if got := ScheduleCost(levels, 1, time.Nanosecond); got != 20 {
		t.Fatalf("sequential cost = %v, want 20", got)
	}
	// 2 workers, zero barrier: 5 + 5 = 10.
	if got := ScheduleCost(levels, 2, 0); got != 10 {
		t.Fatalf("2-worker cost = %v, want 10", got)
	}
	// Barrier cost scales with workers and levels.
	base := ScheduleCost(levels, 2, 0)
	withBarrier := ScheduleCost(levels, 2, 3)
	if withBarrier != base+2*2*3 {
		t.Fatalf("barrier accounting wrong: %v vs base %v", withBarrier, base)
	}
}

// The experiments replay a one-worker run's Trace.Levels through the
// scheduler: that run is the parallel run's model, level for level.
func TestHierarchicalProfiledMatchesHierarchical(t *testing.T) {
	cs, _ := trainingSet(t, 60, 80, 31)
	base := slpa.FromMembership(blockMembership(60, 10))
	cfg := Config{K: 2, MaxIter: 8, Seed: 32}
	mPar, trPar, err := Hierarchical(cs, 60, base, cfg, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mProf, tr, err := Hierarchical(cs, 60, base, cfg, ParallelOptions{Workers: 1, Policy: mergetree.ByCommunityCount})
	if err != nil {
		t.Fatal(err)
	}
	if mPar.A.FrobeniusDist(mProf.A) != 0 || mPar.B.FrobeniusDist(mProf.B) != 0 {
		t.Fatal("one-worker run produced a different model than the parallel run")
	}
	// Levels 6 -> 3 -> 2 -> 1.
	if len(tr.Levels) != 4 || len(trPar.Levels) != 4 {
		t.Fatalf("levels = %d (one worker), %d (four)", len(tr.Levels), len(trPar.Levels))
	}
	for i, l := range tr.Levels {
		p := trPar.Levels[i]
		if l.Communities != p.Communities || l.LogLik != p.LogLik ||
			len(l.TaskDurations) != len(p.TaskDurations) || len(l.TaskDurations) == 0 {
			t.Errorf("level %d: one worker %+v, four %+v", i, l, p)
		}
		for _, d := range l.TaskDurations {
			if d < 0 {
				t.Errorf("negative duration at level %d", i)
			}
		}
	}
	if tr.Levels[len(tr.Levels)-1].Communities != 1 {
		t.Error("last level should be the root community")
	}
}
