package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"encag/internal/block"
)

// rankSlot is a session's persistent rank context, as an MPI rank lives
// as long as its communicator: P worker goroutines, the ranks' wake
// channels, receive-deadline timers and Procs, the P×P receive FIFOs and
// each node's barrier and shared memory. It runs one operation at a
// time. An op takes an idle slot from its session's pool (or a fresh
// one), runs on it, and hands it back only once all three hold:
//
//  1. every rank has returned (run's wg.Wait);
//  2. the op is deregistered, so no reader can newly find it;
//  3. the op's last ciphertext reference is released (opBufs), so no
//     queued send job still points at it.
//
// The third is the last by construction, so the release that drops it
// returns the slot, often on a send loop after Collective has returned.
// Returning retires the slot: it clears the owner, the FIFOs, the shared
// memory and every Proc but its scratch, so an idle slot pins no
// payload. A delivery that reaches a retired or re-taken slot through
// the old op's runtime is dropped (see opRuntime.deliver).
type rankSlot struct {
	pool *slotPool
	// owner is the op running on the slot, nil while idle. take sets it
	// before anything else of the op touches the slot; retire clears it
	// before it clears the FIFOs.
	owner atomic.Pointer[opRuntime]

	fifos     []msgFIFO       // [rank*P+src]: src's delivered messages to rank, oldest first
	wake      []chan struct{} // [rank]: cap 1, a coalesced "delivered" signal
	recvTimer []*time.Timer   // [rank] receive deadline, stopped and drained between receives
	shm       []opShm         // [node]
	bars      []opBarrier     // [node]
	procs     []Proc          // [rank]

	// job is the op the workers run, set by run before it starts them.
	job slotJob
	// ranks hands each worker the rank it runs next; nil until the first
	// run starts the workers, closed by stop.
	ranks chan int
	wg    sync.WaitGroup
}

// slotJob is what one run of a slot computes: every rank runs algo on
// its own payload into res.
type slotJob struct {
	o        *opRuntime
	algo     Algorithm
	payloads [][]byte
	sizes    []int64
	res      *RealResult
}

// newRankSlot builds a slot for spec's P ranks. It starts no goroutine:
// the workers start on the first run. Its timers are made here, stopped,
// and only ever re-armed with Reset.
func newRankSlot(pool *slotPool, spec Spec) *rankSlot {
	s := &rankSlot{
		pool:      pool,
		fifos:     make([]msgFIFO, spec.P*spec.P),
		wake:      make([]chan struct{}, spec.P),
		recvTimer: make([]*time.Timer, spec.P),
		shm:       make([]opShm, spec.N),
		bars:      make([]opBarrier, spec.N),
		procs:     make([]Proc, spec.P),
	}
	for r := range s.wake {
		s.wake[r] = make(chan struct{}, 1)
		t := time.NewTimer(time.Hour)
		t.Stop()
		s.recvTimer[r] = t
		s.procs[r] = Proc{rank: r, spec: spec}
	}
	for n := range s.bars {
		s.bars[n].n = spec.Ell()
	}
	return s
}

// run executes j on the slot's workers and returns when every rank has
// returned, starting the workers first if this is the slot's first run.
func (s *rankSlot) run(j slotJob) {
	p := len(s.procs)
	s.job = j
	if s.ranks == nil {
		s.ranks = make(chan int, p)
		for range p {
			go s.worker()
		}
	}
	s.wg.Add(p)
	for r := range p {
		s.ranks <- r
	}
	s.wg.Wait()
}

// worker runs ranks of successive jobs until the slot stops.
func (s *rankSlot) worker() {
	for r := range s.ranks {
		s.runRank(r)
		s.wg.Done()
	}
}

// runRank runs rank r of the current job, turning a panic into the op's
// failure state.
func (s *rankSlot) runRank(r int) {
	j := &s.job
	o := j.o
	defer func() { recoverRank(recover(), &o.fails, o.abort, r) }()
	p := &s.procs[r]
	p.met, p.eng, p.sizes = &j.res.PerRank[r], o, j.sizes
	j.res.Results[r] = j.algo(p, block.NewPlain(r, j.payloads[r]))
}

// retire drops everything the last op left on the slot. The owner goes
// first: a straggling delivery that takes a FIFO's lock after it sees
// no owner and drops its message, and one that took the lock before is
// cleared below.
func (s *rankSlot) retire() {
	s.owner.Store(nil)
	s.job = slotJob{}
	for i := range s.fifos {
		s.fifos[i].reset()
	}
	for _, w := range s.wake {
		select {
		case <-w:
		default:
		}
	}
	for n := range s.shm {
		clear(s.shm[n].m)
	}
	for n := range s.bars {
		s.bars[n].arrived = 0 // an aborted op can leave ranks counted
	}
	for r := range s.procs {
		s.procs[r].retire()
	}
}

// stop ends the slot's workers, if it has any. The slot is never run
// again.
func (s *rankSlot) stop() {
	if s.ranks != nil {
		close(s.ranks)
	}
}

// slotPool is a session's free list of idle rank slots. It keeps at most
// max of them, the session's in-flight window: an op beyond that — a
// blocking caller outside the window — runs on a transient slot whose
// workers exit when it is returned. After close it keeps none.
type slotPool struct {
	max    int
	mu     sync.Mutex
	idle   []*rankSlot
	closed bool
}

// take hands o an idle slot, or a new one for spec, owned by o.
func (p *slotPool) take(spec Spec, o *opRuntime) *rankSlot {
	var s *rankSlot
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		s = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = newRankSlot(p, spec)
	}
	s.owner.Store(o)
	return s
}

// put retires a slot whose op is done with it, and keeps it idle if the
// pool is open and below its cap; otherwise the slot stops.
func (p *slotPool) put(s *rankSlot) {
	s.retire()
	p.mu.Lock()
	keep := !p.closed && len(p.idle) < p.max
	if keep {
		p.idle = append(p.idle, s)
	}
	p.mu.Unlock()
	if !keep {
		s.stop()
	}
}

// close stops every idle slot; a slot returned from now on stops itself.
func (p *slotPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, s := range idle {
		s.stop()
	}
}
