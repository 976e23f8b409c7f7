package main

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestDaemonLinksNoLabPackage is scripts/ci.sh's import-graph pin where
// `go test ./...` can see it: the serving binary must not close over
// the evaluation lab (DESIGN.md: lab packages are importable only from
// cmd/figures, the root facade and tests).
func TestDaemonLinksNoLabPackage(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	lab := regexp.MustCompile(`(?m)^viralcast/internal/(experiments|gdelt|cluster|netrate|pointproc)$`)
	if hits := lab.FindAllString(string(out), -1); hits != nil {
		t.Fatalf("cmd/viralcast links lab packages: %v", hits)
	}
}

// TestTrainingLinksNoFaultInjector pins that the fit and its checkpoints
// have no fault hooks: their failure paths are driven by test inputs
// (non-finite data, a canceling context, a truncated file, an unwritable
// path), so the injector must not be linked into them.
func TestTrainingLinksNoFaultInjector(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "viralcast/internal/infer", "viralcast/internal/checkpoint").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	if regexp.MustCompile(`(?m)^viralcast/internal/faultinject$`).Match(out) {
		t.Fatal("internal/infer or internal/checkpoint links internal/faultinject")
	}
}
