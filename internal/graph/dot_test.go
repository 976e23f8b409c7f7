package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOTSymmetric(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 2}, Edge{1, 0, 2})
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "backbone", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `graph "backbone" {`) {
		t.Fatalf("header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
	// Symmetric pair emitted exactly once, undirected.
	if strings.Count(out, "0 -- 1;") != 1 {
		t.Fatalf("symmetric edge not deduplicated:\n%s", out)
	}
	if strings.Contains(out, "dir=forward") {
		t.Fatalf("symmetric edge rendered directed:\n%s", out)
	}
	// Isolated nodes without attributes are omitted.
	if strings.Contains(out, "\n  3 [") {
		t.Fatalf("isolated node rendered:\n%s", out)
	}
}

func TestWriteDOTDirectedAndAttrs(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 1}) // no reverse edge
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, "", func(u int) string {
		if u == 2 {
			return `color="red"` // keeps the isolated node visible
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dir=forward") {
		t.Fatalf("asymmetric edge not directed:\n%s", out)
	}
	if !strings.Contains(out, `2 [color="red"];`) {
		t.Fatalf("attributed isolated node missing:\n%s", out)
	}
	if !strings.Contains(out, `graph "g" {`) {
		t.Fatalf("default name missing:\n%s", out)
	}
}
