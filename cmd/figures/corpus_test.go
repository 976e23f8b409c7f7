package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/workload"
)

func TestCmdGdelt(t *testing.T) {
	dir := t.TempDir()
	sitesPath := filepath.Join(dir, "sites.csv")
	eventsPath := filepath.Join(dir, "events.txt")
	err := cmdGdelt([]string{
		"-sites", "300", "-events", "200", "-seed", "2",
		"-out-sites", sitesPath, "-out-events", eventsPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := os.ReadFile(sitesPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(sites), "id,name,region,popularity") {
		t.Fatalf("sites header wrong")
	}
	if lines := strings.Count(string(sites), "\n"); lines != 301 {
		t.Fatalf("sites file has %d lines, want 301", lines)
	}
	if _, err := os.Stat(eventsPath); err != nil {
		t.Fatal(err)
	}
	// The exported events must be loadable by the analyze path.
	if _, _, err := cascade.ReadFile(eventsPath, 300); err != nil {
		t.Fatal(err)
	}
	if err := cmdGdelt([]string{"-sites", "10"}); err == nil {
		t.Error("missing outputs accepted")
	}
}

func TestCmdCluster(t *testing.T) {
	// The draw `viralcast simulate -n 200 -cascades 150 -window 8 -seed 3`
	// writes.
	c := workload.Default()
	c.N, c.Cascades, c.Window, c.Seed = 200, 150, 8, 3
	d, err := workload.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cascades.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cascade.Write(f, d.Cascades); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdCluster([]string{"-in", path, "-k", "3", "-sample", "80"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCluster([]string{}); err == nil {
		t.Error("cluster without -in accepted")
	}
}

func TestCmdGdeltDotExport(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "backbone.dot")
	err := cmdGdelt([]string{
		"-sites", "200", "-events", "150", "-seed", "4",
		"-out-sites", filepath.Join(dir, "s.csv"),
		"-out-events", filepath.Join(dir, "e.txt"),
		"-out-dot", dot, "-min-shared", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `graph "backbone" {`) {
		t.Fatalf("DOT header wrong: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if !strings.Contains(string(data), "--") {
		t.Fatal("DOT has no edges")
	}
	if !strings.Contains(string(data), "color=") {
		t.Fatal("DOT has no region colors")
	}
}
