package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"x", "y"}, [][]float64{{1, 2}, {3.5, 4.25}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,2" {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "3.5") || !strings.Contains(lines[2], "4.25") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestWriteCSVRaggedRow(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"a", "b"}, [][]float64{{1}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestASCIIScatter(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {0.5, 0.5}}
	out := ASCIIScatter(pts, 20, 10)
	if !strings.Contains(out, "*") {
		t.Fatalf("no points rendered:\n%s", out)
	}
	if !strings.Contains(out, "x: 0 .. 1") {
		t.Errorf("x axis missing:\n%s", out)
	}
	// 10 grid rows plus annotations.
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Errorf("too few lines: %d", lines)
	}
	if got := ASCIIScatter(nil, 20, 10); got != "(no data)\n" {
		t.Errorf("empty scatter = %q", got)
	}
}

func TestASCIIScatterDegenerate(t *testing.T) {
	// Identical points must not divide by zero.
	out := ASCIIScatter([]Point{{2, 3}, {2, 3}}, 10, 4)
	if !strings.Contains(out, "*") {
		t.Fatalf("degenerate scatter lost point:\n%s", out)
	}
}

func TestASCIIHistogram(t *testing.T) {
	out := ASCIIHistogram([]string{"a", "bb"}, []int{10, 5}, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], strings.Repeat("#", 20)) {
		t.Errorf("peak bar not full width: %q", lines[0])
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Errorf("half bar wrong: %q", lines[1])
	}
	if got := ASCIIHistogram(nil, nil, 10); got != "(no data)\n" {
		t.Errorf("empty histogram = %q", got)
	}
}

func TestASCIILines(t *testing.T) {
	s := []Series{
		{Name: "fast", Points: []Point{{1, 1}, {2, 2}}},
		{Name: "slow", Points: []Point{{1, 2}, {2, 4}}},
	}
	out := ASCIILines(s, 20, 8)
	if !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("series markers missing:\n%s", out)
	}
	if got := ASCIILines(nil, 20, 8); got != "(no data)\n" {
		t.Errorf("empty lines = %q", got)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"col", "value"}, [][]string{{"a", "1"}, {"long-name", "2"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// Aligned: all rows same display width for first column.
	if !strings.HasPrefix(lines[3], "long-name") {
		t.Errorf("row misaligned: %q", lines[3])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(1.23456, 2) != "1.23" {
		t.Errorf("FormatFloat = %q", FormatFloat(1.23456, 2))
	}
}
