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

// TestProductLinksNoTestFake pins that neither the library nor the
// serving binary links the WAL's fault-injecting disk: every fault is a
// per-instance test input (a wrapped segment file, a replaced server
// seam, a canceling context), so the product carries no fault hook.
func TestProductLinksNoTestFake(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "viralcast", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	if regexp.MustCompile(`(?m)^viralcast/internal/wal/waltest$`).Match(out) {
		t.Fatal("viralcast or cmd/viralcast links internal/wal/waltest")
	}
}
