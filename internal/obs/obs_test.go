package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/encrypted"
	"encag/internal/trace"
)

func sampleEvents() []cluster.TraceEvent {
	return []cluster.TraceEvent{
		{Rank: 0, Kind: cluster.TraceEncrypt, Start: 0, End: 1e-3, Bytes: 1024, Peer: -1},
		{Rank: 0, Kind: cluster.TraceSend, Start: 1e-3, End: 2e-3, Bytes: 1040, Peer: 1, Op: 7},
		{Rank: 1, Kind: cluster.TraceRecv, Start: 0, End: 2e-3, Bytes: 1040, Peer: 0, Op: 7},
		{Rank: 1, Kind: cluster.TraceDecrypt, Start: 2e-3, End: 4e-3, Bytes: 1024, Peer: -1},
	}
}

func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, slices int
	tracks := map[float64]bool{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				meta++
			}
		case "X":
			slices++
			tracks[ev["tid"].(float64)] = true
			if ev["ts"].(float64) < 0 {
				t.Errorf("negative ts: %v", ev)
			}
		}
	}
	if meta != 2 {
		t.Errorf("want 2 thread_name metadata events (one per rank), got %d", meta)
	}
	if slices != len(sampleEvents()) {
		t.Errorf("want %d slices, got %d", len(sampleEvents()), slices)
	}
	if !tracks[0] || !tracks[1] {
		t.Errorf("slices missing a rank track: %v", tracks)
	}
	// Slices of session operations carry the op id; op-less events don't.
	withOp := 0
	for _, ev := range out.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		args := ev["args"].(map[string]any)
		if op, ok := args["op"]; ok {
			withOp++
			if op.(float64) != 7 {
				t.Errorf("op arg = %v, want 7", op)
			}
		}
	}
	if withOp != 2 {
		t.Errorf("want 2 slices labeled with the op id, got %d", withOp)
	}
}

func TestChromeTraceDurationsMicroseconds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var slice *chromeEvent
	for i := range out.TraceEvents {
		if out.TraceEvents[i].Ph == "X" {
			slice = &out.TraceEvents[i]
		}
	}
	if slice == nil {
		t.Fatal("no X event")
	}
	if slice.Dur != 1000 { // 1 ms = 1000 us
		t.Errorf("dur = %v us, want 1000", slice.Dur)
	}
	if slice.Name != "encrypt" {
		t.Errorf("name = %q", slice.Name)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 0 {
		t.Errorf("empty trace produced %d events", len(out.TraceEvents))
	}
}

func TestSummarizePhasesAndCriticalRank(t *testing.T) {
	spec := cluster.Spec{P: 2, N: 2, Mapping: cluster.BlockMapping}
	crit := cluster.Critical{Rc: 1, Sc: 1040, Re: 1, Se: 1024, Rd: 1, Sd: 1024}
	s := Summarize("sim", "hs2", spec, 1024, 4e-3, crit, sampleEvents())
	if s.PhaseSec["encrypt"] != 1e-3 || s.PhaseSec["decrypt"] != 2e-3 {
		t.Errorf("phase seconds wrong: %v", s.PhaseSec)
	}
	if s.PhaseBytes["send"] != 1040 || s.PhaseBytes["recv"] != 1040 {
		t.Errorf("phase bytes wrong: %v", s.PhaseBytes)
	}
	if s.CritRank != 1 || s.CritEndSec != 4e-3 {
		t.Errorf("critical rank %d end %g, want rank 1 end 0.004", s.CritRank, s.CritEndSec)
	}
	if s.CritPhaseSec["decrypt"] != 2e-3 {
		t.Errorf("critical phase seconds wrong: %v", s.CritPhaseSec)
	}
	if s.SecurityOK != nil || s.Wire != nil {
		t.Error("sim summary should not carry security/wire fields")
	}
	// Each kind has one or two intervals; nearest-rank quantiles of a
	// singleton are the value itself, of a pair p50 is the smaller.
	q, ok := s.PhaseQuantiles["decrypt"]
	if !ok || q.P50 != 2e-3 || q.P95 != 2e-3 || q.P99 != 2e-3 {
		t.Errorf("decrypt quantiles wrong: %+v", q)
	}
	if q := s.PhaseQuantiles["send"]; q.P50 != 1e-3 {
		t.Errorf("send p50 = %g, want 1e-3", q.P50)
	}
}

func TestSummaryWithOp(t *testing.T) {
	spec := cluster.Spec{P: 2, N: 1, Mapping: cluster.BlockMapping}
	sum := Summarize("tcp", "hs2", spec, 64, 0.1, cluster.Critical{}, sampleEvents()).
		WithOp(42, 4)
	var buf bytes.Buffer
	if err := sum.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["op_id"].(float64) != 42 || m["window"].(float64) != 4 {
		t.Errorf("op fields wrong: op_id=%v window=%v", m["op_id"], m["window"])
	}
	pq, ok := m["phase_quantiles"].(map[string]any)
	if !ok {
		t.Fatalf("no phase_quantiles in %s", buf.String())
	}
	for _, k := range []string{"send", "recv", "encrypt", "decrypt"} {
		obj, ok := pq[k].(map[string]any)
		if !ok {
			t.Fatalf("phase_quantiles missing %q: %v", k, pq)
		}
		for _, f := range []string{"p50", "p95", "p99"} {
			if _, ok := obj[f]; !ok {
				t.Errorf("phase_quantiles[%q] missing %q", k, f)
			}
		}
	}
	// One-shot runs never set the op fields; they must stay omitted.
	var plain bytes.Buffer
	if err := Summarize("sim", "hs2", spec, 64, 0.1, cluster.Critical{}, nil).WriteJSONL(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "op_id") || strings.Contains(plain.String(), "window") {
		t.Errorf("op fields leaked into op-less summary: %s", plain.String())
	}
}

func TestSummaryJSONLHasSixMetrics(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.CyclicMapping}
	crit := cluster.Critical{Rc: 3, Sc: 100, Re: 2, Se: 50, Rd: 1, Sd: 25}
	var buf bytes.Buffer
	sum := Summarize("tcp", "c-rd", spec, 64, 0.5, crit, sampleEvents()).
		WithSecurity(true).WithWire(4096, true)
	if err := sum.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("JSONL must be exactly one newline-terminated line: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	met, ok := m["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("no metrics object in %s", line)
	}
	for _, k := range []string{"rc", "sc", "re", "se", "rd", "sd"} {
		if _, ok := met[k]; !ok {
			t.Errorf("metrics missing %q: %v", k, met)
		}
	}
	if m["mapping"] != "cyclic" || m["engine"] != "tcp" {
		t.Errorf("spec fields wrong: %s", line)
	}
	wire, ok := m["wire"].(map[string]any)
	if !ok || wire["bytes"].(float64) != 4096 || wire["truncated"] != true {
		t.Errorf("wire summary wrong: %v", m["wire"])
	}
	if m["security_ok"] != true {
		t.Errorf("security_ok wrong: %v", m["security_ok"])
	}
}

// End-to-end: a traced sim run exports a valid Chrome trace whose slice
// count matches the collector's event count.
func TestChromeTraceFromSimRun(t *testing.T) {
	alg, err := encrypted.Get("hs2")
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping}
	col := &trace.Collector{}
	if _, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: alg, MsgSize: 4096, Tracer: col}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col.Events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices != len(col.Events) {
		t.Errorf("%d slices for %d events", slices, len(col.Events))
	}
}
