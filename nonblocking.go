package encag

import (
	"context"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/sched"
)

// DefaultMaxInFlight is the in-flight window of a session that does not
// set WithMaxInFlight: up to this many nonblocking collectives run
// concurrently before Start applies backpressure.
const DefaultMaxInFlight = sched.DefaultMaxInFlight

// Handle is the future of a collective started with Session.Start. It
// is safe to share across goroutines; Wait and Err may be called any
// number of times and always agree. Supported on all three engines (on
// EngineSim the handle is already completed when Start returns).
type Handle struct {
	h *sched.Handle[*RunResult]
}

// Done returns a channel closed when the collective has finished,
// successfully or not — select on it to overlap computation with the
// in-flight communication. Supported on all engines; on EngineSim it is
// already closed when Start returns.
func (h *Handle) Done() <-chan struct{} {
	return h.h.Done()
}

// Wait blocks until the collective finishes and returns its result —
// exactly what the equivalent blocking Run call would have returned.
// Supported on all engines; on EngineSim it returns immediately.
func (h *Handle) Wait() (*RunResult, error) {
	return h.h.Wait()
}

// Err blocks until the collective finishes and returns its error, nil
// on success — Wait for callers that only need the outcome. Supported
// on all engines.
func (h *Handle) Err() error {
	return h.h.Err()
}

// TryWait reports the result without blocking: ok is false while the
// collective is still in flight. Supported on all engines.
func (h *Handle) TryWait() (res *RunResult, err error, ok bool) {
	return h.h.TryWait()
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
// At most MaxInFlight operations run concurrently (WithMaxInFlight,
// default DefaultMaxInFlight): when the window is full, Start blocks
// until a slot frees or ctx is cancelled. The ctx also cancels the
// operation itself mid-flight; cancellation fails this handle with a
// RankError (Op "cancel") and leaves the session and any sibling
// operations intact.
//
// Engines: chan and tcp run the operation truly concurrently. EngineSim
// has no real-time concurrency to overlap, so Start runs the collective
// synchronously in virtual time and returns an already-completed handle
// whose RunResult carries the modelled metrics and latency (Gathered is
// nil: sim payloads are symbolic). Per-op options: WithTracer,
// WithFaultPlan.
//
// An unknown algorithm name fails Start itself with a structured
// *UnknownAlgorithmError — the same fail-fast validation as the
// blocking methods — rather than deferring the failure to the handle.
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
			return &Handle{h: sched.Completed[*RunResult](nil, err)}, nil
		}
		// The sim has no keys, so no nonce can repeat; its ranks send
		// through the same Proc as the real engines, so the plaintext
		// check is the real one.
		msgs := cluster.MessageTotals(per)
		rr := &RunResult{
			Metrics:       res.Metrics,
			SecurityOK:    msgs.PlainInterMsgs == 0,
			InterMessages: msgs.InterMsgs,
			IntraMessages: msgs.IntraMsgs,
			Violations:    msgs.Violations,
			Elapsed:       res.Latency,
			Algorithm:     res.Algorithm,
		}
		return &Handle{h: sched.Completed(rr, nil)}, nil
	}
	h, err := s.nb.Start(ctx, func() (*RunResult, error) {
		return s.gather(ctx, o, a, sizes, nil, "gather")
	})
	if err != nil {
		return nil, err
	}
	return &Handle{h: h}, nil
}

// WaitAll blocks until every collective started with Start has
// finished, returning the first error among them in start order (nil
// when all succeeded, or the context's cause if ctx is cancelled while
// waiting — the operations themselves keep running). It needs no
// handle: the session keeps only the in-flight operations and the
// earliest-started error, never a completed operation's result.
// Supported on all engines (trivial on EngineSim, where Start completes
// synchronously).
func (s *Session) WaitAll(ctx context.Context) error {
	return s.nb.WaitAll(ctx)
}

// MaxInFlight returns the session's in-flight window: how many
// nonblocking collectives may run concurrently before Start blocks.
// Supported on all engines (EngineSim ignores the window: its Start is
// synchronous).
func (s *Session) MaxInFlight() int {
	return s.nb.MaxInFlight()
}

// InFlight returns how many nonblocking collectives are currently
// running. Supported on all engines (always 0 on EngineSim).
func (s *Session) InFlight() int {
	return s.nb.InFlight()
}
