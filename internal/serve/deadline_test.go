package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/core"
	"viralcast/internal/httpkit"
)

// newBudgetServer builds a server with a short per-request budget for
// the deadline tests.
func newBudgetServer(t *testing.T, timeout time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	return startServer(t, Config{Loader: fixtureLoader(t), RequestTimeout: timeout})
}

// stallSeeds replaces srv's seed selection: a call stall approves
// blocks until its request's context ends, the others select for real.
func stallSeeds(srv *Server, stall func() bool) {
	srv.selectSeeds = func(sys *core.System, ctx context.Context, k int, horizon float64) ([]core.Seed, error) {
		if stall() {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return sys.SelectSeedsCtx(ctx, k, horizon)
	}
}

// TestComputeDeadlineReturns503: a stalled seed selection is cut off at
// the request budget with a machine-readable 503 instead of burning CPU
// to completion.
func TestComputeDeadlineReturns503(t *testing.T) {
	srv, ts := newBudgetServer(t, 80*time.Millisecond)
	stallSeeds(srv, func() bool { return true })

	start := time.Now()
	code, body := getJSON(t, ts.URL+"/v1/seeds?k=4&horizon=1")
	elapsed := time.Since(start)
	if code != http.StatusServiceUnavailable || body["reason"] != "deadline" {
		t.Fatalf("stalled seeds = %d %v, want 503 reason=deadline", code, body)
	}
	// The response arrives near the budget.
	if elapsed > time.Second {
		t.Fatalf("deadline response took %v, want ~80ms", elapsed)
	}

	_, m := getJSON(t, ts.URL+"/metrics")
	if m["deadline_exceeded"].(float64) < 1 {
		t.Fatalf("deadline_exceeded = %v, want >= 1", m["deadline_exceeded"])
	}
}

// TestComputeDeadlineErrorNotCached: after a deadline failure, an
// unhurried retry of the same key computes successfully — the TTL cache
// never memoizes errors.
func TestComputeDeadlineErrorNotCached(t *testing.T) {
	srv, ts := newBudgetServer(t, 80*time.Millisecond)
	var calls atomic.Int64
	stallSeeds(srv, func() bool { return calls.Add(1) == 1 })
	if code, _ := getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=1"); code != http.StatusServiceUnavailable {
		t.Fatalf("stalled seeds: status %d, want 503", code)
	}

	code, body := getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=1")
	if code != http.StatusOK {
		t.Fatalf("retry after deadline = %d %v, want 200", code, body)
	}
}

// TestIngestDeadlineDuringWALStall: a hung disk (fsync stalled well past
// the budget) turns the ingest into a 503 at the deadline — the client
// is released even though the commit goroutine is still stuck.
func TestIngestDeadlineDuringWALStall(t *testing.T) {
	srv, ts, disk := newDiskServer(t, Config{
		Loader:         fixtureLoader(t),
		RequestTimeout: 100 * time.Millisecond,
		WALDir:         t.TempDir(),
	})
	_, release := disk.StallSync(1)
	defer release()

	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 910, "node": 1, "time": 0.1})
	elapsed := time.Since(start)
	if code != http.StatusServiceUnavailable || body["reason"] != "deadline" {
		t.Fatalf("ingest during stall = %d %v, want 503 reason=deadline", code, body)
	}
	if elapsed >= 600*time.Millisecond {
		t.Fatalf("stalled ingest took %v — the deadline did not bound the commit wait", elapsed)
	}

	// The stall was latency, not a failure: once the disk recovers the
	// daemon is not degraded and ingestion works again.
	release()
	waitUntil(t, "the stalled fsync to finish", func() bool {
		return srv.walLog().Err() == nil && func() bool {
			code, _ := postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 910, "node": 2, "time": 0.2})
			return code == http.StatusOK
		}()
	})
}

// TestBudgetDisabledByDefault: RequestTimeout 0 installs no deadline.
func TestBudgetDisabledByDefault(t *testing.T) {
	srv, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/rate?u=0&v=1", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("rate without budget: status %d", rec.Code)
	}
}

// TestCtxDoneClassification pins the helper the handlers branch on:
// only context expiry/cancellation counts as an exhausted budget.
func TestCtxDoneClassification(t *testing.T) {
	if httpkit.CtxDone(errors.New("plain")) {
		t.Fatal("plain error classified as a budget exhaustion")
	}
	if !httpkit.CtxDone(context.DeadlineExceeded) || !httpkit.CtxDone(context.Canceled) {
		t.Fatal("context errors not classified as budget exhaustion")
	}
	if !httpkit.CtxDone(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped deadline error not classified")
	}
}
