// Package sched is the nonblocking-collective scheduling core: a
// bounded in-flight window with backpressure, future-style operation
// handles, and a fair multi-stream queue used by the transport engines
// to interleave the sends of concurrent operations.
//
// The package is deliberately transport-agnostic — it knows nothing
// about ranks, frames or sessions. internal/cluster composes FairQueue
// into its per-rank send schedulers, and the public encag.Session
// composes Scheduler + Handle into Start/Wait/WaitAll. Keeping the
// admission window here (rather than inside the engines) means one
// window governs chan and TCP sessions identically, and the sim engine
// can bypass it entirely (sim operations complete synchronously and are
// never in flight).
//
// A Scheduler holds only in-flight operations. Once an operation has
// completed, its result is reachable through its handle alone, and the
// scheduler keeps at most the error WaitAll reports; a long-lived
// session's memory does not grow with the number of operations it ran.
// The only goroutine it starts is each operation's own: Start and
// WaitAll block in a select on a channel the scheduler already holds
// (the window, the idle channel) and their context.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMaxInFlight is the admission window applied when a Scheduler
// is built with a non-positive limit: at most this many operations run
// concurrently, and starting another blocks until a slot frees.
const DefaultMaxInFlight = 4

// ErrClosed is returned by Start on a Close()d scheduler.
var ErrClosed = errors.New("sched: scheduler is closed")

// Scheduler admits operations into a bounded in-flight window. It holds
// only what is in flight: a completed operation's result lives in its
// handle alone, and the scheduler remembers of it at most its error, if
// it is the earliest-started failure so far. All methods are safe for
// concurrent use.
type Scheduler[T any] struct {
	slots chan struct{} // counting semaphore; capacity = window size
	waits atomic.Int64  // Start calls that found the window full

	mu      sync.Mutex
	closed  bool
	started int   // operations started so far; the next one's start index
	failAt  int   // start index of failErr's operation
	failErr error // error of the earliest-started failed operation, nil if none
	live    int
	idle    chan struct{} // made when live leaves zero, closed when it returns to zero
}

// New builds a scheduler with the given in-flight window; n <= 0
// selects DefaultMaxInFlight.
func New[T any](n int) *Scheduler[T] {
	if n <= 0 {
		n = DefaultMaxInFlight
	}
	return &Scheduler[T]{slots: make(chan struct{}, n)}
}

// MaxInFlight returns the window size.
func (s *Scheduler[T]) MaxInFlight() int { return cap(s.slots) }

// InFlight returns how many operations currently hold a slot.
func (s *Scheduler[T]) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// WindowWaits returns how many Start calls found the window full and had
// to block for a slot — the cumulative backpressure events observed over
// the scheduler's lifetime.
func (s *Scheduler[T]) WindowWaits() int64 { return s.waits.Load() }

// Start admits one operation: it blocks while the window is full
// (backpressure), then runs fn on its own goroutine and returns the
// handle immediately. The context only bounds admission — cancelling it
// after Start returns does not cancel the running operation (pass the
// same context into fn for that). fn's result and error complete the
// handle.
func (s *Scheduler[T]) Start(ctx context.Context, fn func() (T, error)) (*Handle[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	select {
	case s.slots <- struct{}{}:
	default:
		// The window is full: count the backpressure event, then block.
		s.waits.Add(1)
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("sched: waiting for an in-flight slot: %w", context.Cause(ctx))
		}
	}
	h := newHandle[T]()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.slots
		return nil, ErrClosed
	}
	at := s.started
	s.started++
	if s.live == 0 {
		s.idle = make(chan struct{})
	}
	s.live++
	s.mu.Unlock()
	go func() {
		v, err := fn()
		h.complete(v, err)
		s.mu.Lock()
		if err != nil && (s.failErr == nil || at < s.failAt) {
			s.failAt, s.failErr = at, err
		}
		if s.live--; s.live == 0 {
			close(s.idle)
		}
		s.mu.Unlock()
		<-s.slots
	}()
	return h, nil
}

// Completed returns a handle that is already done with the given result
// and error — the shape synchronous engines (sim) hand back so callers
// can treat every Start uniformly.
func Completed[T any](v T, err error) *Handle[T] {
	h := newHandle[T]()
	h.complete(v, err)
	return h
}

// WaitAll blocks until every operation started so far has completed (or
// ctx is cancelled) and returns the first error among them in start
// order, nil when all succeeded. Individual handles keep their own
// results; WaitAll never consumes them, and the scheduler keeps no
// handle, so a collected handle's result is garbage once its owner
// drops it. Operations started while WaitAll is blocked are waited on
// too.
func (s *Scheduler[T]) WaitAll(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		idle, live, err := s.idle, s.live, s.failErr
		s.mu.Unlock()
		if live == 0 {
			return err
		}
		select {
		case <-idle:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// Close refuses further Starts. Running operations are not interrupted;
// use WaitAll (or the owner's abort machinery) to drain them.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
