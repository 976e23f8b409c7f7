package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/embed"
)

// simulateFixture writes a small cascade file and returns its path.
func simulateFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cascades.txt")
	err := cmdSimulate(context.Background(), []string{
		"-n", "200", "-cascades", "150", "-window", "8", "-seed", "3", "-out", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("simulate produced no data: %v", err)
	}
	return path
}

func TestCmdSimulateAndAnalyze(t *testing.T) {
	path := simulateFixture(t)
	if err := cmdAnalyze([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdInferWritesModel(t *testing.T) {
	path := simulateFixture(t)
	out := filepath.Join(t.TempDir(), "model.csv")
	err := cmdInfer(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "5", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Since PR 2 the CSV body travels inside the versioned integrity
	// envelope so serving and resuming reject foreign/truncated files.
	if !strings.HasPrefix(string(data), "viralcast-embeddings v1\n") {
		t.Fatalf("model header wrong: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if !strings.Contains(string(data), "node,kind,topic0,topic1") {
		t.Fatalf("model body missing CSV header")
	}
	// envelope (2 lines) + CSV header + 200 nodes x 2 kinds.
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 403 {
		t.Fatalf("model file has %d lines, want 403", lines)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := core.LoadSystem(f, core.TrainConfig{})
	if err != nil {
		t.Fatalf("LoadSystem rejected infer output: %v", err)
	}
	if sys.N != 200 || sys.Embeddings.K() != 2 {
		t.Fatalf("loaded system is %d nodes x %d topics, want 200 x 2", sys.N, sys.Embeddings.K())
	}
}

// TestCmdSimulateCampaign drives the offline scenario engine through
// the CLI: infer a model from simulated cascades, then run a what-if
// comparison against it, both with explicit seed sets and with the
// default CELF-vs-top-influencers pairing.
func TestCmdSimulateCampaign(t *testing.T) {
	path := simulateFixture(t)
	model := filepath.Join(t.TempDir(), "model.csv")
	if err := cmdInfer(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "4", "-out", model}); err != nil {
		t.Fatal(err)
	}
	err := cmdSimulate(context.Background(), []string{
		"-model", model, "-seed-sets", "a:0,1,2;b:10,11,12",
		"-trials", "20", "-window", "2", "-seed", "5", "-milestones", "3,10",
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cmdSimulate(context.Background(), []string{
		"-model", model, "-trials", "10", "-window", "2", "-budget", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Malformed seed sets must be rejected, not silently skipped.
	err = cmdSimulate(context.Background(), []string{
		"-model", model, "-seed-sets", "a:0,x,2", "-trials", "5", "-window", "2",
	})
	if err == nil || !strings.Contains(err.Error(), "not an integer") {
		t.Fatalf("bad -seed-sets error = %v", err)
	}
}

// TestCmdSimulateCampaignSameSet: when CELF picks exactly the top
// influencers, the campaign says so and simulates the one set instead
// of racing it against itself.
func TestCmdSimulateCampaignSameSet(t *testing.T) {
	// Node 7 dominates every rate, so it is both CELF's first pick and
	// the top influencer.
	m := embed.NewModel(20, 1)
	m.A.FillConst(0.01)
	m.B.FillConst(1)
	m.A.Set(7, 0, 5)
	model := filepath.Join(t.TempDir(), "model.csv")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSigned(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdSimulate(context.Background(), []string{"-model", model, "-trials", "10", "-window", "1", "-budget", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CELF picked the top 1 influencers, the same set; no race to run") ||
		!strings.Contains(out, "celf=top-influencers") || strings.Contains(out, "\ntop-influencers") {
		t.Fatalf("campaign output:\n%s", out)
	}
}

func TestCmdInfluencers(t *testing.T) {
	path := simulateFixture(t)
	if err := cmdInfluencers(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "4", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPredict(t *testing.T) {
	path := simulateFixture(t)
	if err := cmdPredict(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "5", "-top", "0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdInfer(context.Background(), []string{"-topics", "2"}); err == nil {
		t.Error("infer without -in accepted")
	}
	if err := cmdAnalyze([]string{}); err == nil {
		t.Error("analyze without -in accepted")
	}
	if err := cmdPredict(context.Background(), []string{"-in", filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Error("predict on missing file accepted")
	}
	if err := cmdInfluencers(context.Background(), []string{}); err == nil {
		t.Error("influencers without -in accepted")
	}
}

func TestLoadCascadesInfersN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.txt")
	if err := os.WriteFile(path, []byte("0,5,0\n0,9,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cs, n, err := cascade.ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("inferred n = %d, want 10", n)
	}
	if len(cs) != 1 || cs[0].Size() != 2 {
		t.Fatalf("cascades = %+v", cs)
	}
	// Explicit n too small must fail validation.
	if _, _, err := cascade.ReadFile(path, 5); err == nil {
		t.Error("undersized n accepted")
	}
}

// TestCmdRejectsHugeNodeID: the universe a file's ids imply must not
// size a table past what an int can allocate. Every subcommand that
// reads a cascade file returns the reader's error, naming the line.
func TestCmdRejectsHugeNodeID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.txt")
	if err := os.WriteFile(path, []byte("1,9223372036854775806,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, run := range map[string]func() error{
		"analyze":     func() error { return cmdAnalyze([]string{"-in", path}) },
		"infer":       func() error { return cmdInfer(ctx, []string{"-in", path}) },
		"influencers": func() error { return cmdInfluencers(ctx, []string{"-in", path}) },
		"predict":     func() error { return cmdPredict(ctx, []string{"-in", path}) },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "line 1: node id 9223372036854775806 above the limit") {
			t.Errorf("%s: %v, want the reader's node id error", name, err)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on: a SIGINT landing at an exact point of the fit, whatever
// the worker schedule. Its Done channel never closes; the fit polls Err.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCmdInferCheckpointResume interrupts an infer run mid-training (a
// context that cancels at its 40th Err call, inside the fit's second
// level, standing in for SIGINT), checks that a checkpoint was
// persisted, and verifies that -resume produces the same model file as
// an uninterrupted run.
func TestCmdInferCheckpointResume(t *testing.T) {
	path := simulateFixture(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fit.ckpt")
	resumed := filepath.Join(dir, "resumed.csv")
	straight := filepath.Join(dir, "straight.csv")

	ctx := &cancelAfter{Context: context.Background(), n: 40}
	err := cmdInfer(ctx, []string{"-in", path, "-topics", "2", "-iters", "5", "-checkpoint", ckpt})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted infer returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	err = cmdInfer(context.Background(), []string{
		"-in", path, "-topics", "2", "-iters", "5", "-checkpoint", ckpt, "-resume", "-out", resumed,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	err = cmdInfer(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "5", "-out", straight})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	a, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(straight)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("resumed model differs from the uninterrupted run")
	}

	// Resuming the now-complete checkpoint runs zero levels and still
	// writes the same model.
	again := filepath.Join(dir, "again.csv")
	err = cmdInfer(context.Background(), []string{
		"-in", path, "-topics", "2", "-iters", "5", "-checkpoint", ckpt, "-resume", "-out", again,
	})
	if err != nil {
		t.Fatalf("resume of completed run: %v", err)
	}
	c, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != string(b) {
		t.Fatal("resume of a completed checkpoint changed the model")
	}
}

func TestCmdInferResumeRequiresCheckpoint(t *testing.T) {
	path := simulateFixture(t)
	err := cmdInfer(context.Background(), []string{"-in", path, "-topics", "2", "-iters", "2", "-resume"})
	if err == nil || !strings.Contains(err.Error(), "Resume requires a checkpoint Path") {
		t.Fatalf("-resume without -checkpoint: err = %v", err)
	}
}

func TestCmdVersion(t *testing.T) {
	if err := cmdVersion(); err != nil {
		t.Fatal(err)
	}
	if v := buildVersion(); v == "" {
		t.Fatal("buildVersion returned empty string")
	}
}

func TestCmdServeRejectsBadFlags(t *testing.T) {
	// No model source at all.
	if err := cmdServe(context.Background(), []string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve without -model/-checkpoint accepted")
	}
	// Both sources at once.
	err := cmdServe(context.Background(), []string{"-model", "a", "-checkpoint", "b"})
	if err == nil {
		t.Error("serve with both -model and -checkpoint accepted")
	}
	// A missing model file fails at startup, not at first request.
	err = cmdServe(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-model", filepath.Join(t.TempDir(), "nope.txt"),
	})
	if err == nil {
		t.Error("serve with missing model file accepted")
	}
}

// TestCmdServeEndToEnd boots the daemon through the real subcommand
// against files produced by the real training subcommands, exactly as
// an operator would, and drives one prediction through it.
func TestCmdServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cascades := simulateFixture(t)
	model := filepath.Join(dir, "model.txt")
	err := cmdInfer(context.Background(), []string{
		"-in", cascades, "-topics", "2", "-iters", "5", "-out", model,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-model", model, "-cascades", cascades,
			"-flush-every", "0", "-drain", "5s",
		})
	}()
	var addr string
	for i := 0; i < 100; i++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited during startup: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatal("daemon never wrote its address file")
	}
	base := "http://" + addr

	body := strings.NewReader(`{"events":[{"cascade":5,"node":1,"time":0.1},{"cascade":5,"node":2,"time":0.2}]}`)
	resp, err := http.Post(base+"/v1/events", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/events = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/cascades/5/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cascades/5/predict = %d", resp.StatusCode)
	}

	cancel() // SIGINT path: the daemon must drain and return nil
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestCmdServeLimitFlags passes the throttling flags the way an
// operator would, and holds the throttled daemon to the simulate cap it
// has no flag for: an over-cap campaign is refused before any compute
// is admitted, naming the limit of 4096 trials.
func TestCmdServeLimitFlags(t *testing.T) {
	cascades, model := modelFixture(t)
	d := start(t, "throttled daemon", cmdServe, serveArgs(cascades, model,
		"-max-inflight", "1", "-queue", "2", "-request-timeout", "2s")...)
	rej := want(t, 400, "POST", d.base+"/v1/simulate", `{"seed_sets":[{"nodes":[1]}],"trials":4097,"horizon":1.0}`)
	if msg, _ := rej["error"].(string); !strings.Contains(msg, "limit 4096") {
		t.Fatalf("over-cap rejection does not name the limit: %v", rej)
	}
	sim := want(t, 200, "POST", d.base+"/v1/simulate", `{"seed_sets":[{"nodes":[1]}],"trials":4096,"horizon":0.5}`)
	if sim["total_trials"] != float64(4096) {
		t.Fatalf("at-cap campaign: %v", sim)
	}
}
