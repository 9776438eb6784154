package cluster

import "time"

// wallTrace stamps TraceEvents against a run epoch in real (wall-clock)
// time — the real and TCP engines' counterpart of the sim engine's
// virtual-time tracing. The zero value is inert; engines activate it by
// setting a tracer and fixing the epoch just before the ranks start, so
// event times are seconds since the collective began, directly
// comparable to the sim engine's virtual timeline.
//
// The tracer is invoked concurrently from p rank goroutines; callers
// must supply a goroutine-safe Tracer (trace.Collector is).
type wallTrace struct {
	tracer Tracer
	epoch  time.Time
	op     uint32 // operation id stamped on every event
}

// noopSpan is returned by inactive spans so callers can close them
// unconditionally without allocating.
var noopSpan = func() {}

func (w *wallTrace) active() bool { return w.tracer != nil }

func (w *wallTrace) now() float64 { return time.Since(w.epoch).Seconds() }

// emit records a completed [start, now] interval.
func (w *wallTrace) emit(rank int, kind TraceKind, start float64, bytes int64, peer int) {
	w.tracer.Record(TraceEvent{
		Rank: rank, Kind: kind, Start: start, End: w.now(),
		Bytes: bytes, Peer: peer, Op: w.op,
	})
}

// span opens a wall-clock interval and returns its closer. Engines use
// it for the compute-phase hooks (encrypt, decrypt, copy), where the
// timed work happens between open and close.
func (w *wallTrace) span(rank int, kind TraceKind, bytes int64) func() {
	if !w.active() {
		return noopSpan
	}
	start := w.now()
	return func() { w.emit(rank, kind, start, bytes, -1) }
}
