package encag

import (
	"context"

	"encag/internal/block"
	"encag/internal/cluster"
)

// DefaultMaxInFlight is the in-flight window of a session that does not
// set WithMaxInFlight: up to this many collectives, blocking or started,
// run concurrently before the next one waits.
const DefaultMaxInFlight = cluster.DefaultMaxInFlight

// Handle is the future of a collective started with Session.Start. It
// is safe to share across goroutines; Wait and Err may be called any
// number of times and always agree. Supported on all three engines (on
// EngineSim the handle is already completed when Start returns).
type Handle struct {
	done chan struct{}
	res  *RunResult
	err  error
}

// resolved is the Done channel of a handle completed before Start
// returns (EngineSim).
var resolved = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Done returns a channel closed when the collective has finished,
// successfully or not — select on it to overlap computation with the
// in-flight communication. Supported on all engines; on EngineSim it is
// already closed when Start returns.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the collective finishes and returns its result —
// exactly what the equivalent blocking Run call would have returned.
// Supported on all engines; on EngineSim it returns immediately.
func (h *Handle) Wait() (*RunResult, error) {
	<-h.done
	return h.res, h.err
}

// Err blocks until the collective finishes and returns its error, nil
// on success — Wait for callers that only need the outcome. Supported
// on all engines.
func (h *Handle) Err() error {
	<-h.done
	return h.err
}

// TryWait reports the result without blocking: ok is false while the
// collective is still in flight. Supported on all engines.
func (h *Handle) TryWait() (res *RunResult, err error, ok bool) {
	select {
	case <-h.done:
		return h.res, h.err, true
	default:
		return nil, nil, false
	}
}

// Start launches one encrypted all-gather with deterministic per-rank
// test payloads of msgSize bytes without waiting for it: the collective
// runs in the background over the session's persistent mesh, and the
// returned Handle resolves to what the equivalent Run call would have
// returned. Any number of operations may be in flight at once — their
// frames interleave fairly on the shared links, each operation keeps
// its own fault injector and tracer, and a failed or cancelled
// operation fails only its own handle (the session breaks only on
// wire-level unrecoverability; see ErrSessionBroken).
//
// At most MaxInFlight collectives run concurrently, blocking calls
// included (WithMaxInFlight, default DefaultMaxInFlight): when the
// window is full, Start blocks until a slot frees, ctx is cancelled (a
// RankError, Op "cancel") or the session closes (ErrSessionClosed). The
// ctx also cancels the operation itself mid-flight, failing only this
// handle. Start starts no goroutine: the rank that finishes last
// resolves the handle.
//
// Engines: chan and tcp run the operation truly concurrently. EngineSim
// has no real-time concurrency to overlap, so Start runs the collective
// synchronously in virtual time and returns an already-completed handle
// whose RunResult carries the modelled metrics and latency (Gathered is
// nil: sim payloads are symbolic). Per-op options: WithTracer,
// WithFaultPlan.
//
// An operation that never starts fails Start itself, with no handle: an
// unknown algorithm (a structured *UnknownAlgorithmError, as on the
// blocking methods), a bad option or size, or a refusing session.
//
// The session holds only in-flight operations: once an operation has
// completed, its result is reachable through the returned Handle alone,
// and dropping the handle lets it be collected.
func (s *Session) Start(ctx context.Context, algorithm Alg, msgSize int64, opts ...Option) (*Handle, error) {
	o, a, err := checkOp(algorithm, opts)
	if err != nil {
		return nil, err
	}
	sizes := block.UniformSizes(s.cs.P, msgSize)
	if s.engine == EngineSim {
		res, per, err := s.simulate(ctx, o, a, sizes, "gather")
		if err != nil {
			return &Handle{done: resolved, err: err}, nil
		}
		rr := judge(per)
		rr.Metrics, rr.Elapsed, rr.Algorithm = res.Metrics, res.Latency, res.Algorithm
		return &Handle{done: resolved, res: &rr}, nil
	}
	h, at := &Handle{done: make(chan struct{})}, s.starts.Add(1)
	op, g := s.prepare(o, a, sizes, nil, "gather")
	// The operation ends on the worker of its last rank, before its rank
	// slot goes back to the window: it is judged as a blocking call would
	// be, and a failure is recorded for WaitAll before the handle resolves.
	err = s.inner.Start(ctx, op, func(res *cluster.RealResult, err error) {
		h.res, h.err = s.conclude(&g, res, err)
		s.failMu.Lock()
		if h.err != nil && (s.failErr == nil || at < s.failAt) {
			s.failAt, s.failErr = at, h.err
		}
		s.failMu.Unlock()
		close(h.done)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// WaitAll blocks until every collective started with Start has
// finished, including those started while it waits — it waits for the
// whole window to empty, blocking calls beside it included — and
// returns the first error among them in start order (nil when all
// succeeded, or the context's cause if ctx is cancelled while waiting —
// the operations themselves keep running). It needs no handle: the
// session keeps only the in-flight operations and the earliest-started
// error, never a completed operation's result. Supported on all engines
// (trivial on EngineSim, where Start completes synchronously).
func (s *Session) WaitAll(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.inner.AwaitIdle(ctx); err != nil {
		return err
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// MaxInFlight returns the session's in-flight window: how many
// collectives, blocking or started, may run concurrently before the
// next one waits. Supported on all engines (EngineSim ignores the
// window: its collectives run synchronously in virtual time).
func (s *Session) MaxInFlight() int { return s.inner.MaxInFlight() }

// InFlight returns how many of the window's slots are taken by
// collectives, blocking or started, that have not yet finished writing
// their last frames. Supported on all engines (always 0 on EngineSim).
func (s *Session) InFlight() int { return s.inner.InFlight() }
