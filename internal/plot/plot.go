// Package plot renders latency-vs-size series as ASCII line charts, so
// the paper's figures come out of encag bench as actual figures, not
// just tables. Log-log axes (the paper's figures use log-scaled sizes),
// one glyph per series, auto-scaled, with a legend and axis labels.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one curve: X values (e.g. message sizes) and Y values (e.g.
// latency in microseconds), the same length.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// glyphs mark the series, in order.
var glyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Options controls rendering.
type Options struct {
	Width  int  // plot area columns (default 72)
	Height int  // plot area rows (default 20)
	LogX   bool // log10 x axis
	LogY   bool // log10 y axis
	XLabel string
	YLabel string
}

// Render draws the chart.
func Render(w io.Writer, title string, series []Series, o Options) error {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	if len(series) == 0 {
		_, err := fmt.Fprintln(w, "(no series)")
		return err
	}
	if len(series) > len(glyphs) {
		return fmt.Errorf("plot: at most %d series supported, got %d", len(glyphs), len(series))
	}

	tx := func(v float64) float64 { return v }
	ty := func(v float64) float64 { return v }
	if o.LogX {
		tx = safeLog10
	}
	if o.LogY {
		ty = safeLog10
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x vs %d y", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		_, err := fmt.Fprintln(w, "(empty series)")
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, o.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", o.Width))
	}
	col := func(x float64) int {
		c := int(math.Round((tx(x) - minX) / (maxX - minX) * float64(o.Width-1)))
		return clamp(c, 0, o.Width-1)
	}
	row := func(y float64) int {
		r := int(math.Round((ty(y) - minY) / (maxY - minY) * float64(o.Height-1)))
		return clamp(o.Height-1-r, 0, o.Height-1)
	}
	for si, s := range series {
		g := glyphs[si]
		// Connect consecutive points with interpolated marks, then stamp
		// the data points on top.
		for i := 1; i < len(s.X); i++ {
			c0, r0 := col(s.X[i-1]), row(s.Y[i-1])
			c1, r1 := col(s.X[i]), row(s.Y[i])
			steps := maxInt(absInt(c1-c0), absInt(r1-r0))
			for t := 1; t < steps; t++ {
				c := c0 + (c1-c0)*t/steps
				r := r0 + (r1-r0)*t/steps
				if grid[r][c] == ' ' {
					grid[r][c] = '.'
				}
			}
		}
		for i := range s.X {
			grid[row(s.Y[i])][col(s.X[i])] = g
		}
	}

	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	topLabel := axisValue(maxY, o.LogY)
	botLabel := axisValue(minY, o.LogY)
	labelW := maxInt(len(topLabel), len(botLabel))
	for r := 0; r < o.Height; r++ {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = pad(topLabel, labelW)
		case o.Height - 1:
			label = pad(botLabel, labelW)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, grid[r]); err != nil {
			return err
		}
	}
	leftX := axisValue(minX, o.LogX)
	rightX := axisValue(maxX, o.LogX)
	gap := o.Width - len(leftX) - len(rightX)
	if gap < 1 {
		gap = 1
	}
	if _, err := fmt.Fprintf(w, "%s  %s%s%s\n", strings.Repeat(" ", labelW),
		leftX, strings.Repeat(" ", gap), rightX); err != nil {
		return err
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si], s.Name))
	}
	if o.XLabel != "" || o.YLabel != "" {
		if _, err := fmt.Fprintf(w, "x: %s  y: %s\n", o.XLabel, o.YLabel); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s\n", strings.Join(legend, "  "))
	return err
}

func safeLog10(v float64) float64 {
	if v <= 0 {
		return -12
	}
	return math.Log10(v)
}

func axisValue(v float64, isLog bool) string {
	if isLog {
		v = math.Pow(10, v)
	}
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	case v >= 1:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}
