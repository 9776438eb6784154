// Package sched holds FairQueue, the multi-stream queue the transport
// engines use to interleave the sends of concurrent operations, and a
// minimal bounded runner, Scheduler, that only the benchmark still
// times. A session's in-flight window is its pool of rank slots
// (internal/cluster), and a started collective's future is encag.Handle.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrClosed is returned by Start on a Close()d scheduler.
var ErrClosed = errors.New("sched: scheduler is closed")

// Scheduler runs functions on their own goroutines, at most n at a time.
type Scheduler[T any] struct {
	slots  chan struct{} // counting semaphore; capacity = window size
	closed atomic.Bool
}

// New builds a scheduler that runs at most n > 0 functions at once.
func New[T any](n int) *Scheduler[T] {
	return &Scheduler[T]{slots: make(chan struct{}, n)}
}

// Start waits while n functions run, or until ctx ends, then runs fn on
// its own goroutine; fn's result and error complete the handle.
func (s *Scheduler[T]) Start(ctx context.Context, fn func() (T, error)) (*Handle[T], error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.slots <- struct{}{}:
	default:
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("sched: waiting for an in-flight slot: %w", context.Cause(ctx))
		}
	}
	h := &Handle[T]{done: make(chan struct{})}
	go func() {
		h.val, h.err = fn()
		close(h.done)
		<-s.slots
	}()
	return h, nil
}

// Close refuses further Starts. Running functions are not interrupted.
func (s *Scheduler[T]) Close() { s.closed.Store(true) }

// Handle is the future of one started function.
type Handle[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Wait blocks until the function has returned and returns its result
// and error; every call returns the same values.
func (h *Handle[T]) Wait() (T, error) {
	<-h.done
	return h.val, h.err
}
