package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"encag"
	"encag/internal/cluster"
)

// spanID names a recorded span; 0 is "no span".
type spanID int32

// span is one interval the benchmark recorded around a call into a
// layer's public function, or rebuilt from the runtime's per-rank trace
// events. Times are offsets from the tracer's epoch.
type span struct {
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent spanID        `json:"parent"`
	Op     uint32        `json:"op"` // the session operation id shared by one operation's spans
	Client int           `json:"client"`
}

// tracer keeps the traced pass's spans in memory; they are summarised,
// and optionally written out, only when the pass has ended.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(layer, name string, client int, parent spanID) spanID {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: now, End: -1, Client: client, Parent: parent})
	id := spanID(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) duration(id spanID) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End - t.spans[id-1].Start
}

// add records a finished span given as offsets from its parent's start.
func (t *tracer) add(parent spanID, layer, name string, from, to time.Duration, op uint32) spanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: p.Start + from, End: p.Start + to,
		Parent: parent, Op: op, Client: p.Client})
	return spanID(len(t.spans))
}

// runtimeSpans hangs the runtime's own view of one operation under the
// span of the call that ran it: the operation as the cluster runtime
// timed it (RunResult.Elapsed), and under that the critical rank's
// send, recv-wait, encrypt, decrypt, copy and barrier intervals (crit,
// from the per-operation TraceCollector). The runtime reports durations and
// offsets from its own start, not wall times, so the operation is
// anchored at the start of the call; self times depend only on how much
// of each parent its children cover.
func (t *tracer) runtimeSpans(call spanID, res *encag.RunResult, crit []cluster.TraceEvent, sendLayer string) {
	t.mu.Lock()
	t.spans[call-1].Op = res.OpID
	t.mu.Unlock()
	op := t.add(call, "cluster", "operation", 0, res.Elapsed, res.OpID)
	for _, ev := range crit {
		layer := "cluster"
		switch ev.Kind {
		case cluster.TraceSend:
			layer = sendLayer
		case cluster.TraceEncrypt, cluster.TraceDecrypt:
			layer = "seal"
		}
		from := time.Duration(ev.Start * float64(time.Second))
		to := time.Duration(ev.End * float64(time.Second))
		t.add(op, layer, ev.Kind.String(), from, to, res.OpID)
	}
}

// criticalEvents returns the intervals of the operation's critical rank,
// the one whose last interval ends latest. It reads the collector once,
// under its lock: a sender goroutine may still be recording the end of
// its last write after the operation has returned.
func criticalEvents(col *encag.TraceCollector) []cluster.TraceEvent {
	evs := col.SortedByStart()
	crit, end := -1, -1.0
	for _, ev := range evs {
		if ev.End > end {
			crit, end = ev.Rank, ev.End
		}
	}
	out := evs[:0]
	for _, ev := range evs {
		if ev.Rank == crit {
			out = append(out, ev)
		}
	}
	return out
}

// covered returns how much of [start, end] the given intervals cover,
// counting overlapping stretches once.
func covered(start, end time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	at := start
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < at {
			s = at
		}
		if e > end {
			e = end
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes folds the spans into per-layer self time: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never ended: the call failed
		}
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, kids[spanID(i+1)])
	}
	return out
}

// layerShare is one row of the self-time ranking.
type layerShare struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

func rankLayers(self map[string]time.Duration) []layerShare {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := make([]layerShare, 0, len(self))
	for layer, d := range self {
		share := 0.0
		if total > 0 {
			share = float64(d) / float64(total)
		}
		out = append(out, layerShare{Layer: layer, SelfMS: float64(d) / 1e6, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
