// Package report renders experiment results as CSV series (the data
// behind every reproduced figure) and quick ASCII plots for terminal
// inspection. Every figure harness in internal/experiments emits its
// series through this package so the regeneration pipeline has one
// output layer.
package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCSV writes a header row and float rows with stable formatting.
func WriteCSV(w io.Writer, header []string, rows [][]float64) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("report: row %d has %d fields, header has %d", i, len(row), len(header))
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = strconv.FormatFloat(v, 'g', 8, 64)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Point is one (X, Y) observation for scatter and line plots.
type Point struct{ X, Y float64 }

// ASCIIScatter renders points in a width x height character grid with
// simple axis annotations — the terminal rendition of the paper's
// feature-vs-size scatter plots (Figures 6-8).
func ASCIIScatter(points []Point, width, height int) string {
	if len(points) == 0 || width < 8 || height < 3 {
		return "(no data)\n"
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range points {
		c := int((p.X - minX) / (maxX - minX) * float64(width-1))
		r := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.3g .. %.3g\n", minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "x: %.3g .. %.3g\n", minX, maxX)
	return b.String()
}

// ASCIIHistogram renders labeled counts as horizontal bars.
func ASCIIHistogram(labels []string, counts []int, maxBar int) string {
	if len(labels) != len(counts) || len(labels) == 0 {
		return "(no data)\n"
	}
	if maxBar < 1 {
		maxBar = 40
	}
	peak := 0
	labelWidth := 0
	for i, c := range counts {
		if c > peak {
			peak = c
		}
		if len(labels[i]) > labelWidth {
			labelWidth = len(labels[i])
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := 0
		if peak > 0 {
			bar = c * maxBar / peak
		}
		fmt.Fprintf(&b, "%-*s | %s %d\n", labelWidth, labels[i], strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Series is one named line for multi-series plots (e.g. time vs cores
// for several cascade counts, Figure 10).
type Series struct {
	Name   string
	Points []Point
}

// ASCIILines renders multiple series on a shared grid, one rune per
// series.
func ASCIILines(series []Series, width, height int) string {
	if len(series) == 0 || width < 8 || height < 3 {
		return "(no data)\n"
	}
	marks := []byte("*o+x#@%&")
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			c := int((p.X - minX) / (maxX - minX) * float64(width-1))
			r := int((p.Y - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-r][c] = mark
		}
	}
	var b strings.Builder
	for si, s := range series {
		fmt.Fprintf(&b, "%c = %s\n", marks[si%len(marks)], s.Name)
	}
	fmt.Fprintf(&b, "y: %.3g .. %.3g\n", minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "x: %.3g .. %.3g\n", minX, maxX)
	return b.String()
}

// Table renders rows of cells as an aligned text table with a header.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly for tables.
func FormatFloat(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}
