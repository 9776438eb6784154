// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes run as goroutines, but the kernel guarantees that at
// most one of them executes at a time and that events fire in strict
// (time, insertion-order) order, so a simulation is fully deterministic and
// data-race free by construction: a process goroutine only runs while the
// kernel is blocked handing it control, and vice versa.
//
// The kernel knows nothing about networks or messages; higher layers
// (internal/netsim, internal/cluster) build those out of events, Signals
// and process suspension.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at    float64
	seq   uint64
	fn    func()
	index int // heap index, -1 when not queued
}

// Time returns the virtual time at which the event is scheduled to fire.
func (ev *Event) Time() float64 { return ev.at }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Go, then call Run.
type Env struct {
	now    float64
	seq    uint64
	queue  eventQueue
	yield  chan struct{} // signalled when the active process blocks or ends
	procs  []*Proc       // every process spawned, in spawn order
	live   int           // processes not yet ended, each parked while the kernel runs
	killed bool          // set by kill: a resumed process unwinds, and no panic is fatal
	fatal  error
}

// NewEnv returns an empty environment at virtual time 0.
func NewEnv() *Env {
	return &Env{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Schedule registers fn to run at now+delay. A negative delay is clamped
// to zero. The returned Event may be passed to Cancel.
func (e *Env) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	ev := &Event{at: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Env) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -2
}

// Run executes events until the queue is empty. It returns an error if
// processes remain blocked with no pending events (deadlock), or if a
// process panicked; either way it first unwinds every process still
// live, so a failed run leaves no goroutine behind.
func (e *Env) Run() error {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.at < e.now {
			return e.kill(fmt.Errorf("sim: time went backwards: %g < %g", ev.at, e.now))
		}
		e.now = ev.at
		ev.fn()
		if e.fatal != nil {
			return e.kill(e.fatal)
		}
	}
	// With the queue empty, every live process is parked on a Signal.
	if e.live > 0 {
		return e.kill(fmt.Errorf("sim: deadlock: %d process(es) blocked with empty event queue at t=%g", e.live, e.now))
	}
	return nil
}

// kill ends a run early and returns err: it drops the pending events
// and resumes each live process with the kill flag set, until it has
// unwound through its goroutine's recover.
func (e *Env) kill(err error) error {
	e.queue, e.killed = nil, true
	for _, p := range e.procs {
		for !p.ended {
			p.activate()
		}
	}
	return err
}

// Proc is a simulated process. Its methods must only be called from the
// goroutine started by Env.Go for this process.
type Proc struct {
	env    *Env
	resume chan struct{}
	name   string
	ended  bool
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Go spawns a simulated process. fn starts running at virtual time now
// (via a zero-delay event). Run must be called afterwards to drive it.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, resume: make(chan struct{}), name: name}
	e.procs = append(e.procs, p)
	e.live++
	go func() {
		defer func() {
			if r := recover(); r != nil && !e.killed {
				e.fatal = fmt.Errorf("sim: process %q panicked: %v", name, r)
			}
			p.ended = true
			e.live--
			e.yield <- struct{}{}
		}()
		p.wake()
		fn(p)
	}()
	e.Schedule(0, func() { p.activate() })
	return p
}

// activate hands control to the process goroutine and waits until it
// blocks again (or ends). Must be called from the kernel (event context).
func (p *Proc) activate() {
	p.resume <- struct{}{}
	<-p.env.yield
}

// park blocks the process goroutine, returning control to the kernel.
// The process resumes when something calls activate on it.
func (p *Proc) park() {
	p.env.yield <- struct{}{}
	p.wake()
}

// wake blocks until the kernel resumes the process; a process resumed
// by kill unwinds.
func (p *Proc) wake() {
	<-p.resume
	if p.env.killed {
		panic("sim: process killed")
	}
}

// Wait advances the process's local view of time by d seconds: the process
// suspends and resumes once the virtual clock has advanced by d.
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.env.Schedule(d, func() { p.activate() })
	p.park()
}

// Signal is a broadcast condition: processes wait on it, and Fire wakes
// all current waiters at the present virtual time (in FIFO order).
type Signal struct {
	env       *Env
	waiters   []*Proc
	callbacks []func()
	fired     bool
	sticky    bool
}

// NewSignal returns a one-shot signal: once Fire has been called, future
// Wait calls return immediately.
func NewSignal(e *Env) *Signal {
	return &Signal{env: e, sticky: true}
}

// NewGate returns a reusable signal: Fire wakes current waiters only, and
// later Wait calls block until the next Fire.
func NewGate(e *Env) *Signal {
	return &Signal{env: e}
}

// Wait suspends p until the signal fires (or returns immediately if a
// sticky signal has already fired).
func (s *Signal) Wait(p *Proc) {
	if s.sticky && s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// OnFire registers fn to run (via a zero-delay event) when the signal
// fires. If a sticky signal has already fired, fn is scheduled right away.
func (s *Signal) OnFire(fn func()) {
	if s.sticky && s.fired {
		s.env.Schedule(0, fn)
		return
	}
	s.callbacks = append(s.callbacks, fn)
}

// Fire wakes all waiters via zero-delay events, preserving FIFO order,
// and schedules any OnFire callbacks. It may be called from event context
// or from a process context.
func (s *Signal) Fire() {
	s.fired = true
	waiters := s.waiters
	s.waiters = nil
	callbacks := s.callbacks
	s.callbacks = nil
	for _, fn := range callbacks {
		s.env.Schedule(0, fn)
	}
	for _, w := range waiters {
		w := w
		s.env.Schedule(0, func() { w.activate() })
	}
}
