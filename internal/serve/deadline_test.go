package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"viralcast/internal/faultinject"
	"viralcast/internal/httpkit"
)

// newBudgetServer builds a server with a short per-request budget for
// the deadline tests.
func newBudgetServer(t *testing.T, timeout time.Duration, walDir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Loader:         fixtureLoader(t),
		CacheTTL:       time.Minute,
		RequestTimeout: timeout,
		WALDir:         walDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestComputeDeadlineReturns503: a stalled seed selection (latency
// injected inside the CELF loop) is cut off at the request budget with
// a machine-readable 503 instead of burning CPU to completion.
func TestComputeDeadlineReturns503(t *testing.T) {
	_, ts := newBudgetServer(t, 80*time.Millisecond, "")

	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Fault{
		Site: "inflmax.greedy", Action: faultinject.Sleep, Delay: 300 * time.Millisecond,
	})
	defer faultinject.Activate(inj)()

	start := time.Now()
	code, body := getJSON(t, ts.URL+"/v1/seeds?k=4&horizon=1")
	elapsed := time.Since(start)
	if code != http.StatusServiceUnavailable || body["reason"] != "deadline" {
		t.Fatalf("stalled seeds = %d %v, want 503 reason=deadline", code, body)
	}
	// The response arrives near the budget, not after k sleeps.
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
	_, ts := newBudgetServer(t, 80*time.Millisecond, "")

	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Fault{
		Site: "inflmax.greedy", Action: faultinject.Sleep,
		Delay: 300 * time.Millisecond, Times: 1,
	})
	deactivate := faultinject.Activate(inj)
	if code, _ := getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=1"); code != http.StatusServiceUnavailable {
		t.Fatalf("stalled seeds: status %d, want 503", code)
	}
	deactivate()

	code, body := getJSON(t, ts.URL+"/v1/seeds?k=3&horizon=1")
	if code != http.StatusOK {
		t.Fatalf("retry after deadline = %d %v, want 200", code, body)
	}
}

// TestIngestDeadlineDuringWALStall: a hung disk (fsync stalled well past
// the budget) turns the ingest into a 503 at the deadline — the client
// is released even though the commit goroutine is still stuck.
func TestIngestDeadlineDuringWALStall(t *testing.T) {
	srv, ts := newBudgetServer(t, 100*time.Millisecond, t.TempDir())

	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Fault{
		Site: "wal.fsync", Action: faultinject.Sleep,
		Delay: 600 * time.Millisecond, Times: 1,
	})
	defer faultinject.Activate(inj)()

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
	waitUntil(t, "the stalled fsync to finish", func() bool {
		return srv.walLog().Err() == nil && func() bool {
			code, _ := postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 910, "node": 2, "time": 0.2})
			return code == http.StatusOK
		}()
	})
}

// TestBudgetDisabledByDefault: RequestTimeout 0 installs no deadline.
func TestBudgetDisabledByDefault(t *testing.T) {
	srv, err := New(Config{Loader: fixtureLoader(t), CacheTTL: time.Minute})
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
