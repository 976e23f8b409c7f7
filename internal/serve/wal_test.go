package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"

	"viralcast/internal/wal"
	"viralcast/internal/wal/waltest"
)

// newWALServer builds a Server with durable ingestion on dir.
func newWALServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	return startServer(t, Config{Loader: fixtureLoader(t), WALDir: dir})
}

// newDiskServer is startServer with the WAL's segment files behind a
// disk the test arms.
func newDiskServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *waltest.Disk) {
	t.Helper()
	disk := new(waltest.Disk)
	cfg.walOpts.WrapFile = disk.Wrap
	srv, ts := startServer(t, cfg)
	return srv, ts, disk
}

// startServer builds a Server from cfg and serves it over HTTP until
// the test ends.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postEvent ingests one event, reporting the HTTP status.
func postEvent(t *testing.T, base string, cascade, node int, tm float64) int {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"cascade": cascade, "node": node, "time": tm})
	resp, err := http.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/events: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestWALRestartRecoversStore: the basic durability loop without a
// crash — ingest through the full HTTP path, drop the server without
// any flush, and bring a fresh one up on the same WAL directory.
func TestWALRestartRecoversStore(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newWALServer(t, dir)
	for i := 1; i <= 5; i++ {
		if code := postEvent(t, tsA.URL, 4242, i, float64(i)/10); code != http.StatusOK {
			t.Fatalf("event %d: status %d", i, code)
		}
	}
	code, predA := getJSON(t, tsA.URL+"/v1/cascades/4242/predict")
	if code != http.StatusOK {
		t.Fatalf("predict on A: status %d", code)
	}
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newWALServer(t, dir)
	if got := srvB.store.Len(); got != 1 {
		t.Fatalf("recovered store has %d cascades, want 1", got)
	}
	c, ok := srvB.store.Snapshot(4242)
	if !ok || c.Size() != 5 {
		t.Fatalf("cascade 4242 not recovered intact: ok=%v size=%d", ok, c.Size())
	}
	code, predB := getJSON(t, tsB.URL+"/v1/cascades/4242/predict")
	if code != http.StatusOK {
		t.Fatalf("predict on B: status %d", code)
	}
	for _, k := range []string{"viral", "margin", "size"} {
		if fmt.Sprint(predA[k]) != fmt.Sprint(predB[k]) {
			t.Fatalf("prediction %q changed across restart: %v vs %v", k, predA[k], predB[k])
		}
	}
	_, m := getJSON(t, tsB.URL+"/metrics")
	if m["wal_replayed_records"].(float64) != 5 || m["wal_enabled"] != true {
		t.Fatalf("wal metrics wrong after recovery: replayed=%v enabled=%v",
			m["wal_replayed_records"], m["wal_enabled"])
	}
}

// TestWALFlushCompaction: a flush that absorbs live cascades must
// compact the log, and a post-compaction restart must still rebuild the
// full store (the snapshot segment carries the live state).
func TestWALFlushCompaction(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newWALServer(t, dir)
	for i := 1; i <= 6; i++ {
		postEvent(t, tsA.URL, 7, i, float64(i)/10)
		postEvent(t, tsA.URL, 8, i+10, float64(i)/10)
	}
	if n, err := srvA.Flush(); err != nil || n != 2 {
		t.Fatalf("flush absorbed %d cascades (err %v), want 2", n, err)
	}
	st, _ := srvA.walStats()
	if st.Compactions != 1 {
		t.Fatalf("flush did not compact the WAL: %+v", st)
	}
	// More events after compaction land in the surviving segment.
	postEvent(t, tsA.URL, 7, 50, 0.9)
	tsA.Close()
	srvA.Close()

	srvB, _ := newWALServer(t, dir)
	if got := srvB.store.Len(); got != 2 {
		t.Fatalf("post-compaction recovery: %d cascades, want 2", got)
	}
	c, _ := srvB.store.Snapshot(7)
	if c == nil || c.Size() != 7 {
		t.Fatalf("cascade 7 lost events across compaction+restart: %+v", c)
	}
}

// TestWALAppendFailureNotAcknowledged: when the group commit fails, the
// ingest response must be an error — the client was not acknowledged,
// so losing those events in a crash is correct behavior.
func TestWALAppendFailureNotAcknowledged(t *testing.T) {
	_, ts, disk := newDiskServer(t, Config{Loader: fixtureLoader(t), WALDir: t.TempDir()})
	disk.FailSync(1, fmt.Errorf("injected fsync failure"))
	if code := postEvent(t, ts.URL, 99, 1, 0.1); code != http.StatusInternalServerError {
		t.Fatalf("ingest during WAL failure returned %d, want 500", code)
	}
}

// TestWALKillRecover is the kill-and-recover acceptance test: a server
// is hard-killed (os.Exit from inside the fsync, nothing flushes) in the
// middle of an event stream, immediately after the K-th commit reached
// durability but before its response was written. The restarted server
// must recover exactly the acknowledged events: same Store.Len(), same
// cascade contents, same prediction as a control server that ingested
// only those events. A torn tail is smeared onto the last segment
// before restart to prove byte-level corruption is truncated, not
// fatal.
func TestWALKillRecover(t *testing.T) {
	const crashEnv = "VIRALCAST_WAL_CRASH_DIR"
	const kill = 7 // commits that reach durability before the crash
	if dir := os.Getenv(crashEnv); dir != "" {
		runKillRecoverChild(t, dir, kill)
		return
	}
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestWALKillRecover$", "-test.v")
	cmd.Env = append(os.Environ(), crashEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 86 {
		t.Fatalf("child did not hard-kill itself with code 86: err=%v\n%s", err, out)
	}

	// Smear a torn tail over the last segment: byte-level corruption on
	// top of whatever the crash left behind.
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments after crash: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xba, 0xad})
	f.Close()

	// Restart on the crashed directory.
	srv, ts := newWALServer(t, dir)
	// Control: a WAL-less server fed exactly the acknowledged events.
	ctrl, err := New(Config{Loader: fixtureLoader(t)})
	if err != nil {
		t.Fatal(err)
	}
	tsCtrl := httptest.NewServer(ctrl.Handler())
	defer tsCtrl.Close()
	for i, ev := range killRecoverEvents(2 * kill)[:kill] {
		if code := postEvent(t, tsCtrl.URL, ev.Cascade, ev.Node, ev.Time); code != http.StatusOK {
			t.Fatalf("control ingest %d: status %d", i, code)
		}
	}

	if got, want := srv.store.Len(), ctrl.store.Len(); got != want {
		t.Fatalf("recovered Store.Len() = %d, control = %d", got, want)
	}
	for _, id := range []int{600, 601} {
		rc, rok := srv.store.Snapshot(id)
		cc, cok := ctrl.store.Snapshot(id)
		if rok != cok {
			t.Fatalf("cascade %d: recovered=%v control=%v", id, rok, cok)
		}
		if !rok {
			continue
		}
		if rc.Size() != cc.Size() {
			t.Fatalf("cascade %d: recovered %d infections, control %d", id, rc.Size(), cc.Size())
		}
		for i := range rc.Infections {
			if rc.Infections[i] != cc.Infections[i] {
				t.Fatalf("cascade %d infection %d: %+v vs %+v", id, i, rc.Infections[i], cc.Infections[i])
			}
		}
		code, recov := getJSON(t, ts.URL+fmt.Sprintf("/v1/cascades/%d/predict", id))
		if code != http.StatusOK {
			t.Fatalf("predict %d on recovered server: status %d", id, code)
		}
		_, control := getJSON(t, tsCtrl.URL+fmt.Sprintf("/v1/cascades/%d/predict", id))
		for _, k := range []string{"viral", "margin", "size"} {
			if fmt.Sprint(recov[k]) != fmt.Sprint(control[k]) {
				t.Fatalf("cascade %d prediction %q: recovered %v, control %v", id, k, recov[k], control[k])
			}
		}
	}
	st, _ := srv.walStats()
	if st.TornTruncations == 0 {
		t.Fatalf("expected the smeared torn tail to be truncated: %+v", st)
	}
}

// killRecoverEvents is the deterministic stream both the crashing child
// and the control run ingest: two interleaved cascades.
func killRecoverEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Cascade: 600 + i%2, Node: 1 + i, Time: float64(1+i) / 10}
	}
	return evs
}

// runKillRecoverChild is the re-exec'd half of TestWALKillRecover: it
// serves with the WAL on the inherited directory, arms a hard-kill
// immediately after the kill-th commit becomes durable, and streams
// events until the process dies mid-request.
func runKillRecoverChild(t *testing.T, dir string, kill int) {
	_, ts, disk := newDiskServer(t, Config{Loader: fixtureLoader(t), WALDir: dir})
	// One event per request and fsync-paced commits mean commit k ==
	// event k == the k-th fsync from here. Dying right after the kill-th
	// fsync leaves exactly `kill` events durable; the last of them was
	// never acknowledged, which is the allowed side of the contract
	// (recovered ⊇ acked).
	disk.ExitAfterSync(kill, 86)
	for _, ev := range killRecoverEvents(2 * kill) {
		postEvent(t, ts.URL, ev.Cascade, ev.Node, ev.Time)
	}
	t.Fatal("child survived the stream; the hard-kill never fired")
}
