package pool

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunCtxStopsSchedulingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var scheduled atomic.Int64
	err := RunCtx(ctx, 1, 100, func(i int) error {
		scheduled.Add(1)
		if i == 4 {
			cancel() // fires before this task returns its worker slot
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// workers=1 serializes scheduling, so nothing past task 4 may start.
	if got := scheduled.Load(); got != 5 {
		t.Fatalf("scheduled %d tasks after cancellation at task 4", got)
	}
}

func TestRunCtxCancelBeatsTaskError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := RunCtx(ctx, 1, 10, func(i int) error {
		if i == 2 {
			cancel()
			return errors.New("doomed task error")
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to outrank the task error", err)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunCtx(ctx, 4, 10, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-canceled context", ran.Load())
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	err := Run(2, 4, func(i int) error {
		if i == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic value missing from error: %q", msg)
	}
	// debug.Stack output names the goroutine and the frames, including
	// this test function — that is what makes the crash diagnosable.
	if !strings.Contains(msg, "goroutine") || !strings.Contains(msg, "TestPanicErrorCarriesStack") {
		t.Fatalf("stack trace missing from panic error:\n%s", msg)
	}
}

func TestRunWithInjectedFaults(t *testing.T) {
	want := errors.New("injected task failure")
	var calls, fired, completed atomic.Int64
	err := Run(2, 10, func(i int) error {
		switch calls.Add(1) {
		case 3:
			fired.Add(1)
			return want
		case 7:
			fired.Add(1)
			panic("injected task panic")
		}
		completed.Add(1)
		return nil
	})
	// Call 3 fails with the injected error and call 7 panics; the pool
	// must contain both, finish the remaining 8 tasks, and surface one
	// error.
	if err == nil {
		t.Fatal("injected faults produced no error")
	}
	if completed.Load() != 8 {
		t.Fatalf("completed %d tasks, want 8", completed.Load())
	}
	if fired.Load() != 2 {
		t.Fatalf("fired %d faults, want 2", fired.Load())
	}
}
