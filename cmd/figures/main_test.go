package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestFiguresSmallGolden: `figures -fig all -scale small` writes to
// stdout, byte for byte, the committed results/figures_small.log —
// nothing on it depends on a clock, the worker count or thread
// interleaving (ci.sh runs it at GOMAXPROCS 1 and 8). The golden was
// taken on amd64; other architectures may fuse multiply-adds and move
// low digits. After a deliberate change to a figure, regenerate it with
// `go run ./cmd/figures -fig all -scale small > results/figures_small.log`.
func TestFiguresSmallGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden taken on amd64, running on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "figures_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := runner{scale: "small", seed: 1, out: &out, log: io.Discard}
	if err := r.runAll("all"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("stdout differs from results/figures_small.log at line %d:\n got %q\nwant %q", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("stdout has %d lines, results/figures_small.log %d", len(got), len(exp))
}

func TestRunnerSmallScaleFigures(t *testing.T) {
	csvDir := t.TempDir()
	r := runner{scale: "small", csvDir: csvDir, seed: 1, out: io.Discard, log: io.Discard}
	// The GDELT-backed figures share one cached corpus; run them together.
	for _, fig := range []string{"2", "3"} {
		if err := r.run(fig); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
	// The scaling figures share the Figure-10 measurement.
	for _, fig := range []string{"10", "13"} {
		if err := r.run(fig); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
	// CSV series written for the scaling figures.
	for _, name := range []string{"fig10_scaling.csv", "fig13_speedup.csv"} {
		info, err := os.Stat(filepath.Join(csvDir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("missing CSV %s: %v", name, err)
		}
	}
}

// At -scale small the SBM prediction study and the lab tables share one
// configuration, so a run that prints all of them draws and fits one
// workload.
func TestRunnerDrawsEachConfigOnce(t *testing.T) {
	r := runner{scale: "small", seed: 1, out: io.Discard, log: io.Discard}
	if err := r.runAll("6,9,ablations,baselines,convergence,sweeps"); err != nil {
		t.Fatal(err)
	}
	if len(r.workloads) != 1 {
		t.Fatalf("%d SBM workloads drawn, want 1", len(r.workloads))
	}
}

func TestRunnerUnknownFigure(t *testing.T) {
	r := runner{scale: "small", seed: 1}
	if err := r.run("99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunnerScaleConfigs(t *testing.T) {
	small := runner{scale: "small", seed: 1}
	if e := small.sbmExp(); e.N != 400 {
		t.Errorf("small SBM N = %d", e.N)
	}
	paper := runner{scale: "paper", seed: 1}
	if e := paper.sbmExp(); e.N != 2000 || e.Cascades != 3000 {
		t.Errorf("paper SBM config wrong: %+v", e)
	}
	if cfg := small.gdeltCfg(2000); cfg.Sites != 600 {
		t.Errorf("small gdelt sites = %d", cfg.Sites)
	}
}
