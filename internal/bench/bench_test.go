package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"encag"
)

func TestSizeNameRoundTrip(t *testing.T) {
	cases := map[int64]string{
		1:         "1B",
		64:        "64B",
		1 << 10:   "1KB",
		4 << 10:   "4KB",
		256 << 10: "256KB",
		2 << 20:   "2MB",
	}
	for n, want := range cases {
		if got := SizeName(n); got != want {
			t.Errorf("SizeName(%d) = %s, want %s", n, got, want)
		}
		back, err := ParseSize(want)
		if err != nil || back != n {
			t.Errorf("ParseSize(%s) = %d, %v", want, back, err)
		}
	}
	if _, err := ParseSize("12XB"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
	buf.Reset()
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Errorf("csv header wrong: %q", buf.String())
	}
	if v, ok := tb.Cell("x", "b"); !ok || v != "1" {
		t.Errorf("Cell = %q, %v", v, ok)
	}
	if _, ok := tb.Cell("x", "zzz"); ok {
		t.Error("Cell found nonexistent column")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"fig1", "table1", "table2", "table2c", "table3", "table4", "table5", "table6", "fig5", "fig6", "fig7", "fig8", "overlap", "ablation", "sensitivity", "breakdown"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := Get("table3"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("bogus"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Run every experiment in quick mode: they must all succeed and produce
// non-empty tables.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, e := range All() {
		tables, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s table %s has no rows", e.ID, tb.ID)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Fatalf("%s table %s row width %d != headers %d", e.ID, tb.ID, len(row), len(tb.Headers))
				}
			}
		}
	}
}

// Key qualitative shapes from the paper's evaluation, asserted on the
// quick-mode tables (p=32, N=4, block/cyclic): Naive always positive
// overhead; the best scheme beats Naive everywhere; the best scheme goes
// negative (beats MPI) for large messages.
func TestTableShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, gen := range []func(Options) ([]Table, error){TableIII, TableIV} {
		tables, err := gen(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		tb := tables[0]
		for _, row := range tb.Rows {
			naive, err1 := strconv.ParseFloat(row[2], 64)
			best, err2 := strconv.ParseFloat(row[3], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("unparseable row %v", row)
			}
			if naive <= 0 {
				t.Errorf("%s @%s: naive overhead %.2f%% should be positive", tb.ID, row[0], naive)
			}
			if best >= naive {
				t.Errorf("%s @%s: best scheme (%.2f%%) should beat naive (%.2f%%)", tb.ID, row[0], best, naive)
			}
		}
	}
}

// At paper scale (p=128, N=8) and large messages, the best encrypted
// scheme must beat unencrypted MPI — the paper's headline claim. This is
// one targeted simulation pair rather than the whole table.
func TestBestSchemeBeatsMPIAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const m = 256 << 10
	s, err := openSim(encag.Spec{Procs: 128, Nodes: 8}, encag.Noleland())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mpi, err := s.Simulate(bg, "mpi", m)
	if err != nil {
		t.Fatal(err)
	}
	hs2, err := s.Simulate(bg, "hs2", m)
	if err != nil {
		t.Fatal(err)
	}
	if hs2.Latency >= mpi.Latency {
		t.Fatalf("hs2 (%v) should beat mpi (%v) at 256KB, as in Table III", hs2.Latency, mpi.Latency)
	}
}

// The paper's Figure 1 ratio — encryption is about half the speed of the
// network at large sizes — must hold in the model columns.
func TestFigure1Shape(t *testing.T) {
	tables, err := Figure1(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	last := tb.Rows[len(tb.Rows)-1]
	pp, _ := strconv.ParseFloat(last[1], 64)
	enc, _ := strconv.ParseFloat(last[2], 64)
	if pp <= enc {
		t.Errorf("ping-pong (%.0f) should exceed encryption (%.0f)", pp, enc)
	}
	if r := pp / enc; r < 1.5 || r > 3 {
		t.Errorf("throughput ratio %.2f, want ~2", r)
	}
}

// Ablation sanity: HS1 joint decryption must not be slower than
// leader-only decryption at large sizes.
func TestAblationJointDecrypt(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Ablations(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var joint *Table
	for i := range tables {
		if tables[i].ID == "ablation-joint" {
			joint = &tables[i]
		}
	}
	if joint == nil {
		t.Fatal("ablation-joint table missing")
	}
	lastRow := joint.Rows[len(joint.Rows)-1]
	hs1, _ := strconv.ParseFloat(lastRow[1], 64)
	solo, _ := strconv.ParseFloat(lastRow[2], 64)
	if hs1 > solo {
		t.Errorf("joint decryption (%g us) should beat leader-only (%g us)", hs1, solo)
	}
}

// Reproduction-quality gate on the full Table III (paper scale): the
// best scheme must match the paper at the smallest size (o-rd2) and at
// every size from 16KB up (hs2), and the overhead sign must agree with
// the paper on at least 60% of rows.
func TestTableIIIPaperAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := TableIII(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	paperBySize := map[string]PaperRow{}
	for _, r := range PaperTableIII {
		paperBySize[SizeName(r.Size)] = r
	}
	if got, _ := tb.Cell("1B", "best-scheme"); got != "o-rd2" {
		t.Errorf("best scheme @1B = %s, paper says o-rd2", got)
	}
	signAgree, rows := 0, 0
	for _, row := range tb.Rows {
		pr, ok := paperBySize[row[0]]
		if !ok {
			continue
		}
		rows++
		best, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if (best < 0) == (pr.BestPct < 0) {
			signAgree++
		}
		if sz, _ := ParseSize(row[0]); sz >= 16<<10 {
			if row[4] != "hs2" {
				t.Errorf("best scheme @%s = %s, paper says hs2", row[0], row[4])
			}
		}
	}
	if rows == 0 || float64(signAgree)/float64(rows) < 0.6 {
		t.Errorf("overhead sign agreement %d/%d below 60%%", signAgree, rows)
	}
}

func TestPlotTable(t *testing.T) {
	tb := Table{
		ID:      "figX",
		Title:   "demo panel",
		Headers: []string{"size", "alg1", "alg2"},
		Rows: [][]string{
			{"1KB", "10.5", "20.1"},
			{"4KB", "40.2", "35.9"},
			{"16KB", "160.0", "90.4"},
		},
	}
	if !Plottable(tb) {
		t.Fatal("panel not recognised as plottable")
	}
	chart, err := PlotTable(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figX", "*=alg1", "o=alg2", "latency (us)"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	// Overhead tables are not plottable (non-numeric columns).
	bad := Table{Headers: []string{"size", "scheme"}, Rows: [][]string{{"1KB", "hs2"}}}
	if Plottable(bad) {
		t.Fatal("non-numeric table marked plottable")
	}
	if _, err := PlotTable(bad); err == nil {
		t.Fatal("PlotTable accepted non-numeric table")
	}
}

func TestTableJSONL(t *testing.T) {
	tb := Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}, {"longer", "2"}},
	}
	var buf bytes.Buffer
	if err := tb.JSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one JSON line per row, got %d", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("row %d not valid JSON: %v", i, err)
		}
		if m["experiment"] != "t" || m["table"] != "demo" {
			t.Errorf("row %d missing identity: %v", i, m)
		}
		if _, ok := m["a"]; !ok {
			t.Errorf("row %d missing column a: %v", i, m)
		}
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	tables := []Table{
		{ID: "a", Headers: []string{"x"}, Rows: [][]string{{"1"}}},
		{ID: "b", Headers: []string{"y"}, Rows: [][]string{{"2"}}},
	}
	if err := WriteCSVDir(tables, dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		data, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s.csv empty", id)
		}
	}
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
