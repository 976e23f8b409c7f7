package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The helpers below run the real subcommands the way
// TestCmdServeEndToEnd does — cmdServe / cmdRoute on a goroutine, port
// 0, -addr-file, context cancel as the SIGTERM — so a test starts a
// fleet the way an operator's script would and talks to it over HTTP.

// modelFixture simulates a small cascade file and fits a model to it
// through the real subcommands, returning both paths.
func modelFixture(t *testing.T) (cascades, model string) {
	t.Helper()
	cascades = simulateFixture(t)
	model = filepath.Join(t.TempDir(), "model.txt")
	err := cmdInfer(context.Background(), []string{"-in", cascades, "-topics", "2", "-iters", "5", "-out", model})
	if err != nil {
		t.Fatal(err)
	}
	return cascades, model
}

// proc is one subcommand running on a goroutine.
type proc struct {
	name   string
	base   string // http://host:port, from -addr-file
	cancel context.CancelFunc
	done   chan error
}

// start runs `viralcast <sub> -addr 127.0.0.1:0 -addr-file … args` and
// waits for the bound address. The process is stopped with the test.
func start(t *testing.T, name string, run func(context.Context, []string) error, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{name: name, cancel: cancel, done: make(chan error, 1)}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "1s"}, args...)
	go func() { p.done <- run(ctx, args) }()
	t.Cleanup(func() { p.stop(t) })
	waitFor(t, name+" to publish its address", func() bool {
		select {
		case err := <-p.done:
			t.Fatalf("%s exited during startup: %v", name, err)
		default:
		}
		data, err := os.ReadFile(addrFile)
		if err != nil || len(data) == 0 {
			return false
		}
		p.base = "http://" + string(data)
		return true
	})
	return p
}

// serveArgs is the daemon command line every test shares.
func serveArgs(cascades, model string, more ...string) []string {
	return append([]string{"-model", model, "-cascades", cascades, "-flush-every", "0"}, more...)
}

// stop cancels the context — what main does on SIGTERM — and requires
// the drain to finish with a nil error. Safe to call twice.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	p.cancel()
	if p.done == nil {
		return
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Errorf("%s: graceful shutdown returned %v", p.name, err)
		}
	case <-time.After(20 * time.Second):
		t.Errorf("%s did not drain", p.name)
	}
	p.done = nil
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitCurrent blocks until a follower's replication stream is current
// with zero lag and it serves cascade id at the given size.
func waitCurrent(t *testing.T, follower *proc, id, size int) {
	t.Helper()
	waitFor(t, follower.name+" to be current", func() bool {
		ready := want(t, 200, "GET", follower.base+"/readyz", "")
		if ready["replication"] != "current" || ready["replication_lag_records"] != float64(0) {
			return false
		}
		var c struct{ Size int }
		code, body := call(t, "GET", fmt.Sprintf("%s/v1/cascades/%d", follower.base, id), "")
		return code == http.StatusOK && json.Unmarshal(body, &c) == nil && c.Size == size
	})
}

// call performs one request and returns the status and the body.
func call(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, data
}

// want performs one request, requires the status, and decodes the JSON
// body into a generic document.
func want(t *testing.T, status int, method, url, body string) map[string]any {
	t.Helper()
	code, data := call(t, method, url, body)
	if code != status {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, code, status, data)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s %s: undecodable body %q: %v", method, url, data, err)
	}
	return doc
}

// rawField GETs url (must answer 200) and returns one top-level field's
// bytes, for byte-identity between envelopes whose siblings differ.
func rawField(t *testing.T, url, field string) []byte {
	t.Helper()
	code, data := call(t, "GET", url, "")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); code != http.StatusOK || err != nil {
		t.Fatalf("GET %s = %d %q (%v)", url, code, data, err)
	}
	return bytes.TrimSpace(doc[field])
}

// captureStdout runs fn with os.Stdout pointed at a file and returns
// what it printed. The daemons of a test log to stderr.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	data, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(data), err
}
