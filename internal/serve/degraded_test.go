package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"viralcast/internal/wal"
)

// TestReadyzDegradedTransitions walks the full degraded-mode lifecycle
// through the HTTP surface: healthy → WAL fail-stop (ingestion goes
// read-only, predictions keep serving, /readyz and the metrics gauges
// report the cause) → supervised recovery via POST /v1/reload.
func TestReadyzDegradedTransitions(t *testing.T) {
	_, ts, disk := newDiskServer(t, Config{Loader: fixtureLoader(t), WALDir: t.TempDir()})

	// Healthy baseline.
	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["status"] != "ready" || body["degraded"] != false {
		t.Fatalf("healthy readyz = %d %v", code, body)
	}
	for i := 1; i <= 4; i++ {
		if code := postEvent(t, ts.URL, 900, i, float64(i)/10); code != http.StatusOK {
			t.Fatalf("healthy ingest %d: status %d", i, code)
		}
	}

	// Fail-stop the WAL: the next commit's fsync errors, poisoning the
	// log. That request itself answers 500 (its events are not durable).
	disk.FailSync(1, errors.New("injected: disk gone"))
	if code := postEvent(t, ts.URL, 900, 5, 0.5); code != http.StatusInternalServerError {
		t.Fatalf("ingest during fsync failure: status %d, want 500", code)
	}

	// Degraded: ingestion is explicitly read-only with a machine-readable
	// cause, before touching the store.
	code, body = postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 900, "node": 6, "time": 0.6})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded: status %d, want 503 (%v)", code, body)
	}
	if body["reason"] != "read_only" || body["cause"] != degradedCauseWAL {
		t.Fatalf("read-only reject body = %v", body)
	}

	// /readyz still answers 200 — predictions keep serving, load
	// balancers keep routing — but reports degraded with the cause.
	code, body = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("degraded readyz: status %d", code)
	}
	if body["status"] != "degraded" || body["degraded"] != true || body["read_only"] != true {
		t.Fatalf("degraded readyz body = %v", body)
	}
	if body["cause"] != degradedCauseWAL || body["detail"] == "" || body["recovery"] != "POST /v1/reload" {
		t.Fatalf("degraded readyz missing cause/detail/recovery: %v", body)
	}

	// Reads and predictions are unaffected.
	if code, _ := getJSON(t, ts.URL+"/v1/rate?u=0&v=1"); code != http.StatusOK {
		t.Fatalf("rate while degraded: status %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/cascades/900/predict"); code != http.StatusOK {
		t.Fatalf("predict while degraded: status %d", code)
	}

	// The gauges flip.
	_, m := getJSON(t, ts.URL+"/metrics")
	if m["degraded"] != 1.0 || m["degraded_cause"] != degradedCauseWAL {
		t.Fatalf("degraded gauges = %v / %v", m["degraded"], m["degraded_cause"])
	}
	if m["readonly_rejects"].(float64) < 1 {
		t.Fatalf("readonly_rejects = %v, want >= 1", m["readonly_rejects"])
	}

	// Supervised recovery: reload swaps a fresh model AND reopens the
	// WAL (replay is absorbed by the duplicate guard).
	if code, body := postJSON(t, ts.URL+"/v1/reload", map[string]any{}); code != http.StatusOK {
		t.Fatalf("reload recovery: status %d, body %v", code, body)
	}
	code, body = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["status"] != "ready" || body["degraded"] != false {
		t.Fatalf("recovered readyz = %d %v", code, body)
	}
	if code := postEvent(t, ts.URL, 900, 7, 0.7); code != http.StatusOK {
		t.Fatalf("ingest after recovery: status %d", code)
	}
	_, m = getJSON(t, ts.URL+"/metrics")
	if m["degraded"] != 0.0 || m["wal_recoveries"] != 1.0 {
		t.Fatalf("post-recovery gauges: degraded=%v wal_recoveries=%v", m["degraded"], m["wal_recoveries"])
	}
}

// TestFlushFailureMarksModelStale: a failed refinement pass keeps the
// last good generation serving and raises the staleness surface; a
// later successful flush clears it.
func TestFlushFailureMarksModelStale(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 7001, 6)

	failFirstUpdate(srv, errors.New("injected: retrain host OOM"))

	code, body := postJSON(t, ts.URL+"/v1/flush", map[string]any{})
	if code != http.StatusInternalServerError {
		t.Fatalf("flush with injected failure: status %d, body %v", code, body)
	}

	// The daemon still serves — predictions from the last good
	// generation — but /readyz and the gauges say the model is stale.
	code, body = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after failed flush = %d %v", code, body)
	}
	if body["stale"] != true || body["stale_error"] == "" {
		t.Fatalf("readyz missing staleness: %v", body)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if m["model_stale"] != 1.0 || m["flush_failures"] != 1.0 {
		t.Fatalf("staleness gauges: model_stale=%v flush_failures=%v", m["model_stale"], m["flush_failures"])
	}
	if m["model_staleness_seconds"].(float64) < 0 {
		t.Fatalf("model_staleness_seconds = %v", m["model_staleness_seconds"])
	}

	// New growth + a clean flush clears the staleness.
	ingestEvents(t, ts.URL, 7002, 6)
	if code, body := postJSON(t, ts.URL+"/v1/flush", map[string]any{}); code != http.StatusOK {
		t.Fatalf("recovery flush: status %d, body %v", code, body)
	}
	_, body = getJSON(t, ts.URL+"/readyz")
	if body["stale"] != false {
		t.Fatalf("readyz still stale after clean flush: %v", body)
	}
	_, m = getJSON(t, ts.URL+"/metrics")
	if m["model_stale"] != 0.0 {
		t.Fatalf("model_stale gauge after clean flush = %v", m["model_stale"])
	}
}

// TestFailedFlushIsRetried: a flush that fails hands its cascades back.
// With the marks left advanced the next flush found nothing dirty,
// answered flushed = 0 before clearing the stale flag, and the growth
// the failed pass had snapshotted never reached a refit.
func TestFailedFlushIsRetried(t *testing.T) {
	srv, ts := newTestServer(t)
	ingestEvents(t, ts.URL, 7101, 6)

	failFirstUpdate(srv, errors.New("injected: refit failed once"))

	if code, body := postJSON(t, ts.URL+"/v1/flush", map[string]any{}); code != http.StatusInternalServerError {
		t.Fatalf("flush with injected failure: status %d, body %v", code, body)
	}
	// No new events: the retry must absorb what the failed pass dropped.
	code, body := postJSON(t, ts.URL+"/v1/flush", map[string]any{})
	if code != http.StatusOK {
		t.Fatalf("retry flush: status %d, body %v", code, body)
	}
	if flushed, _ := body["flushed"].(float64); flushed < 1 {
		t.Fatalf("retry flush absorbed nothing: %v", body)
	}
	if _, body := getJSON(t, ts.URL+"/readyz"); body["stale"] != false {
		t.Fatalf("readyz still stale after the retry: %v", body)
	}
}

// TestFailedCreateDegradesUntilReload: a WAL segment the daemon cannot
// create poisons the log like every other disk error, so the probes
// see it instead of every later append failing behind a ready daemon.
// The append that needs the rotation is refused, ingestion turns
// read-only with the WAL cause (and /readyz reports it), POST
// /v1/reload recovers, ingestion resumes in the next segment, and a
// restart replays every acknowledged event.
func TestFailedCreateDegradesUntilReload(t *testing.T) {
	dir := t.TempDir()
	srv, ts, disk := newDiskServer(t, Config{Loader: fixtureLoader(t), WALDir: dir, walOpts: wal.Options{MaxSegmentBytes: 256}})
	disk.FailCreate(errors.New("injected: no space for a new segment"))
	var acked []Event
	for i := 1; ; i++ {
		ev := Event{Cascade: 950, Node: i, Time: float64(i) / 100}
		code := postEvent(t, ts.URL, ev.Cascade, ev.Node, ev.Time)
		if code == http.StatusInternalServerError {
			break // the append that needed segment 2
		}
		if code != http.StatusOK || i == 50 {
			t.Fatalf("ingest %d: status %d, want 200 until a rotation is refused", i, code)
		}
		acked = append(acked, ev)
	}

	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["status"] != "degraded" || body["cause"] != degradedCauseWAL ||
		!strings.Contains(fmt.Sprint(body["detail"]), "no space") || body["recovery"] != "POST /v1/reload" {
		t.Fatalf("readyz after a failed segment create = %d %v, want degraded with the WAL cause", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/events", map[string]any{"cascade": 950, "node": 99, "time": 0.99})
	if code != http.StatusServiceUnavailable || body["reason"] != "read_only" || body["cause"] != degradedCauseWAL {
		t.Fatalf("ingest while degraded = %d %v, want 503 read_only with the WAL cause", code, body)
	}

	if code, body := postJSON(t, ts.URL+"/v1/reload", map[string]any{}); code != http.StatusOK {
		t.Fatalf("reload recovery: status %d, body %v", code, body)
	}
	if code, body := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after reload = %d %v", code, body)
	}
	ev := Event{Cascade: 950, Node: 100, Time: 1}
	if code := postEvent(t, ts.URL, ev.Cascade, ev.Node, ev.Time); code != http.StatusOK {
		t.Fatalf("ingest after reload: status %d", code)
	}
	acked = append(acked, ev)
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[1].Seq != 2 || segs[1].Size <= wal.SegmentHeaderLen {
		t.Fatalf("segments after recovery: %+v, want the ingest in segment 2", segs)
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _ := newWALServer(t, dir)
	c, ok := srv2.store.Snapshot(950)
	if !ok || c.Size() != len(acked) {
		t.Fatalf("restart replayed %v events of cascade 950, want the %d acknowledged", c, len(acked))
	}
	for i, inf := range c.Infections {
		if inf.Node != acked[i].Node || inf.Time != acked[i].Time {
			t.Fatalf("replayed infection %d = %+v, want %+v", i, inf, acked[i])
		}
	}
}
