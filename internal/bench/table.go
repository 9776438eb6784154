// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section V) from the simulation
// engine, renders them as text or CSV, and can lay our numbers side by
// side with the paper's published values.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// YUnit, when set, marks the table as a plottable latency/throughput
	// panel (first column sizes, remaining columns numeric in this unit).
	YUnit string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes the table as comma-separated values.
func (t Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSONL writes the table as JSON Lines: one object per row keyed by the
// column headers, each carrying the experiment and table identity — the
// structured-telemetry form of the bench output, greppable and easy to
// load into pandas/jq alongside encag trace's run summaries.
func (t Table) JSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, row := range t.Rows {
		rec := make(map[string]any, len(t.Headers)+2)
		rec["experiment"] = t.ID
		rec["table"] = t.Title
		for i, h := range t.Headers {
			if i < len(row) {
				rec[h] = row[i]
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Cell looks up a cell by row key (first column) and column header;
// convenient for tests asserting on table content.
func (t Table) Cell(rowKey, col string) (string, bool) {
	ci := -1
	for i, h := range t.Headers {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range t.Rows {
		if len(row) > ci && row[0] == rowKey {
			return row[ci], true
		}
	}
	return "", false
}

// WriteCSVDir writes each table as <dir>/<id>.csv, creating dir if
// needed — machine-readable artifacts for downstream plotting.
func WriteCSVDir(tables []Table, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
		if err != nil {
			return err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
