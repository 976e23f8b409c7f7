package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAll(t *testing.T) {
	var count atomic.Int64
	err := Run(4, 100, func(i int) error {
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("executed %d of 100", count.Load())
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	err := Run(3, 50, func(i int) error {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("concurrency peak %d exceeds bound 3", peak.Load())
	}
	// On a 1-core host the peak may be < 3; it must be at least 1.
	if peak.Load() < 1 {
		t.Fatalf("nothing ran concurrently at all: peak %d", peak.Load())
	}
}

func TestRunReturnsFirstErrorButFinishes(t *testing.T) {
	sentinel := errors.New("boom")
	var count atomic.Int64
	err := Run(2, 20, func(i int) error {
		count.Add(1)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if count.Load() != 20 {
		t.Fatalf("error aborted remaining tasks: %d of 20 ran", count.Load())
	}
}

func TestRunContainsPanics(t *testing.T) {
	err := Run(2, 10, func(i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestRunDegenerateInputs(t *testing.T) {
	if err := Run(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("n=0 must be a no-op")
	}
	var ran atomic.Int64
	if err := Run(0, 5, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatal("workers=0 must clamp to 1 and still run")
	}
}

func TestGatherCollectsResultsAndErrors(t *testing.T) {
	out, errs := GatherCtx(context.Background(), 3, 10, func(i int) (int, error) {
		if i%4 == 1 {
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i * 10, nil
	})
	if len(out) != 10 || len(errs) != 10 {
		t.Fatalf("lengths %d/%d, want 10/10", len(out), len(errs))
	}
	for i := range out {
		if i%4 == 1 {
			if errs[i] == nil {
				t.Fatalf("errs[%d] = nil, want failure", i)
			}
			continue
		}
		// A failing sibling must not discard this index's result.
		if errs[i] != nil || out[i] != i*10 {
			t.Fatalf("index %d: out=%d err=%v", i, out[i], errs[i])
		}
	}
}

func TestGatherContainsPanicsPerIndex(t *testing.T) {
	out, errs := GatherCtx(context.Background(), 2, 4, func(i int) (string, error) {
		if i == 2 {
			panic("boom")
		}
		return "ok", nil
	})
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "panicked") {
		t.Fatalf("panic not contained into errs[2]: %v", errs[2])
	}
	for _, i := range []int{0, 1, 3} {
		if errs[i] != nil || out[i] != "ok" {
			t.Fatalf("index %d poisoned by sibling panic: out=%q err=%v", i, out[i], errs[i])
		}
	}
}

func TestGatherCancellationMarksUnscheduled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, errs := GatherCtx(ctx, 1, 5, func(i int) (int, error) {
			if i == 0 {
				close(started)
				<-release
			}
			return i, nil
		})
		// With one worker wedged on task 0 and the context canceled,
		// later indexes must carry ctx.Err(), not silently hold zero
		// values that look like successes.
		for j := 1; j < 5; j++ {
			if errs[j] == context.Canceled {
				sawCancel.Store(true)
			}
		}
	}()
	<-started
	cancel()
	close(release)
	<-done
	if !sawCancel.Load() {
		t.Fatal("no unscheduled index carried ctx.Err() after cancellation")
	}
}
