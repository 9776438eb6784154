// Package obs is the observability layer: it turns a run's TraceEvent
// stream and results into machine-readable artifacts so the simulator's
// predicted timeline and a real run's measured timeline can be laid side
// by side — the repo's model-vs-measurement validation loop.
//
// Two exporters:
//
//   - Chrome trace_event JSON (WriteChromeTrace), loadable in Perfetto
//     (https://ui.perfetto.dev) or chrome://tracing, with one track per
//     rank and one slice per send / recv-wait / encrypt / decrypt /
//     copy / barrier interval;
//   - JSONL structured run summaries (RunSummary), one object per line:
//     spec, algorithm, the paper's six critical-path metrics, per-phase
//     time and byte totals, and — for TCP runs — the WireSniffer's
//     capture totals.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"encag/internal/cluster"
	"encag/internal/trace"
)

// chromeEvent is one trace_event entry. We emit "X" (complete) events
// with microsecond timestamps, plus "M" (metadata) events naming each
// rank's track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the events as Chrome trace_event JSON: one
// track (thread) per rank, one complete slice per activity interval.
// Event times are interpreted as seconds since the run started —
// virtual seconds for the sim engine, wall-clock seconds for the real
// and TCP engines — and exported in microseconds, the format's unit.
func WriteChromeTrace(w io.Writer, events []cluster.TraceEvent) error {
	maxRank := -1
	for _, ev := range events {
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
	}
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)+maxRank+2),
		DisplayTimeUnit: "ms",
	}
	for r := 0; r <= maxRank; r++ {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
		// sort_index keeps tracks in rank order in the viewer.
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: r,
			Args: map[string]any{"sort_index": r},
		})
	}
	for _, ev := range events {
		args := map[string]any{"bytes": ev.Bytes}
		if ev.Peer >= 0 {
			args["peer"] = ev.Peer
		}
		if ev.Op != 0 {
			// Label the slice with its operation id so overlapping
			// collectives on one session stay distinguishable per track.
			args["op"] = ev.Op
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Kind.String(),
			Cat:  ev.Kind.String(),
			Ph:   "X",
			Ts:   ev.Start * 1e6,
			Dur:  (ev.End - ev.Start) * 1e6,
			Pid:  0,
			Tid:  ev.Rank,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WireSummary reports what the TCP engine's WireSniffer captured, so a
// truncated capture is visible instead of silently passing.
type WireSummary struct {
	Bytes     int64 `json:"bytes"`     // total inter-node bytes on the wire
	Truncated bool  `json:"truncated"` // capture hit its cap and dropped bytes
}

// RunSummary is one structured run record, written as a single JSONL
// line. PhaseSec/PhaseBytes aggregate the trace over all ranks per
// activity kind; CritPhaseSec is the same breakdown restricted to the
// last-finishing rank — the one that defines the latency.
type RunSummary struct {
	Engine       string             `json:"engine"` // "sim", "chan" or "tcp"
	Algorithm    string             `json:"algorithm"`
	Procs        int                `json:"procs"`
	Nodes        int                `json:"nodes"`
	Mapping      string             `json:"mapping"`
	MsgSize      int64              `json:"msg_size"`
	ElapsedSec   float64            `json:"elapsed_sec"` // virtual latency (sim) or wall clock
	Metrics      cluster.Critical   `json:"metrics"`
	PhaseSec     map[string]float64 `json:"phase_sec,omitempty"`
	PhaseBytes   map[string]int64   `json:"phase_bytes,omitempty"`
	CritRank     int                `json:"crit_rank"`
	CritEndSec   float64            `json:"crit_end_sec"`
	CritPhaseSec map[string]float64 `json:"crit_phase_sec,omitempty"`
	// PhaseQuantiles distributes the per-interval durations of each
	// activity kind across all ranks: where PhaseSec says how much total
	// time a phase took, the quantiles say how it was spread over the
	// individual sends/receives/seals.
	PhaseQuantiles map[string]PhaseQuantiles `json:"phase_quantiles,omitempty"`
	SecurityOK     *bool                     `json:"security_ok,omitempty"` // real/tcp only
	Wire           *WireSummary              `json:"wire,omitempty"`        // tcp only
	// Selected is the concrete algorithm that actually ran, making
	// traces of alg=auto runs attributable. Omitted when it matches the
	// requested Algorithm.
	Selected string `json:"selected_alg,omitempty"`
	// OpID is the session operation id of the summarized collective
	// (session runs only; 0 for one-shot and sim runs).
	OpID uint32 `json:"op_id,omitempty"`
	// Window is the nonblocking in-flight window the run executed under.
	Window int `json:"window,omitempty"`
}

// PhaseQuantiles holds nearest-rank duration quantiles (in seconds) over
// one activity kind's intervals.
type PhaseQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// durQuantile returns the nearest-rank q-quantile of sorted durations.
func durQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Summarize builds a RunSummary from a run's spec, six-metric critical
// path and trace events. The per-kind totals and the critical rank come
// from trace.Collector's per-rank fold; only the quantiles are its own.
// Security and wire fields are left unset; the caller fills them for
// real/TCP runs via WithSecurity/WithWire.
func Summarize(engine, algorithm string, spec cluster.Spec, msgSize int64, elapsedSec float64, crit cluster.Critical, events []cluster.TraceEvent) RunSummary {
	s := RunSummary{
		Engine:     engine,
		Algorithm:  algorithm,
		Procs:      spec.P,
		Nodes:      spec.N,
		Mapping:    spec.Mapping.String(),
		MsgSize:    msgSize,
		ElapsedSec: elapsedSec,
		Metrics:    crit,
	}
	if len(events) == 0 {
		return s
	}
	col := &trace.Collector{Events: events}
	s.PhaseSec = make(map[string]float64)
	s.PhaseBytes = make(map[string]int64)
	for _, pr := range col.Profiles(spec.P) {
		for k, v := range pr.Total {
			s.PhaseSec[k.String()] += v
		}
		for k, n := range pr.Bytes {
			s.PhaseBytes[k.String()] += n
		}
	}
	cp := col.Critical(spec.P)
	s.CritRank, s.CritEndSec = cp.Rank, cp.End
	s.CritPhaseSec = make(map[string]float64, len(cp.Total))
	for k, v := range cp.Total {
		s.CritPhaseSec[k.String()] = v
	}
	durs := make(map[string][]float64)
	for _, ev := range events {
		k := ev.Kind.String()
		durs[k] = append(durs[k], ev.End-ev.Start)
	}
	s.PhaseQuantiles = make(map[string]PhaseQuantiles, len(durs))
	for k, d := range durs {
		sort.Float64s(d)
		s.PhaseQuantiles[k] = PhaseQuantiles{
			P50: durQuantile(d, 0.50),
			P95: durQuantile(d, 0.95),
			P99: durQuantile(d, 0.99),
		}
	}
	return s
}

// WithSecurity records the security-audit verdict (real and TCP runs).
func (s RunSummary) WithSecurity(ok bool) RunSummary {
	s.SecurityOK = &ok
	return s
}

// WithWire records the WireSniffer capture totals (TCP runs).
func (s RunSummary) WithWire(bytes int64, truncated bool) RunSummary {
	s.Wire = &WireSummary{Bytes: bytes, Truncated: truncated}
	return s
}

// WithSelected records the concrete algorithm an alg=auto run resolved
// to. A selection equal to the requested algorithm is dropped — the
// field only appears when it adds information.
func (s RunSummary) WithSelected(alg string) RunSummary {
	if alg != s.Algorithm && alg != "" {
		s.Selected = alg
	}
	return s
}

// WithOp records the session operation id and the nonblocking in-flight
// window the collective ran under.
func (s RunSummary) WithOp(opID uint32, window int) RunSummary {
	s.OpID = opID
	s.Window = window
	return s
}

// WriteJSONL writes the summary as one JSON line.
func (s RunSummary) WriteJSONL(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}
