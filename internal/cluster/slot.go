package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// rankSlot is a session's persistent rank context, as an MPI rank lives
// as long as its communicator: P worker goroutines, the ranks' wake
// channels, receive-deadline timers and Procs, the P×P receive FIFOs and
// each node's barrier and shared memory. It runs one operation at a
// time. An op takes a slot from its session's pool, the in-flight
// window, runs on it, and hands it back only once all three hold:
//
//  1. every rank has returned, and the op has ended (Session.end);
//  2. the op is deregistered, so no reader can newly find it;
//  3. the op's last reference is released (opBufs), so no queued send
//     job and no socket reader still points at it.
//
// The third is the last by construction, so the release that drops it
// returns the slot, often on a send loop or a socket reader after the op
// has ended. Returning retires the slot: it clears the owner, the FIFOs,
// the shared memory, the pair arenas and every Proc but its scratch, so
// an idle slot pins no payload. Everything that delivers to the op holds
// one of its references, so nothing delivers to a retired or re-taken
// slot through the old op's runtime.
type rankSlot struct {
	pool *slotPool
	// owner is the op running on the slot, nil while idle: the job its
	// workers run. newOp sets it before anything else of the op touches
	// the slot; retire clears it before it clears the FIFOs.
	owner atomic.Pointer[opRuntime]

	fifos     []msgFIFO       // [rank*P+src]: src's delivered messages to rank, oldest first
	wake      []chan struct{} // [rank]: cap 1, a coalesced "delivered" signal
	recvTimer []*time.Timer   // [rank] receive deadline, stopped between receives
	shm       []opShm         // [node]
	bars      []opBarrier     // [node]
	procs     []Proc          // [rank]
	recv      []recvArena     // [src*P+dst]: a socket pair's decoded frames (link.serveConn)
	held      [][]byte        // the owner's ciphertext buffer list (opBufs), kept for the next owner

	// left counts the owner's ranks still running. ranks hands each
	// worker the rank it runs next; nil until the first start starts the
	// workers, closed by stop. finished wakes a blocking caller (worker).
	left     atomic.Int32
	ranks    chan int
	finished chan struct{}
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
		recv:      make([]recvArena, spec.P*spec.P),
		finished:  make(chan struct{}, 1),
	}
	for r := range s.wake {
		s.wake[r] = make(chan struct{}, 1)
		t := time.NewTimer(time.Hour)
		t.Stop()
		s.recvTimer[r] = t
		s.procs[r] = Proc{rank: r, spec: spec, lay: pool.lay}
	}
	for n := range s.bars {
		s.bars[n].n = spec.Ell()
	}
	return s
}

// start hands the owner's ranks to the slot's workers, starting them on
// the slot's first op, and returns at once.
func (s *rankSlot) start() {
	p := len(s.procs)
	s.left.Store(int32(p))
	if s.ranks == nil {
		s.ranks = make(chan int, p)
		for range p {
			go s.worker()
		}
	}
	for r := range p {
		s.ranks <- r
	}
}

// worker runs ranks of successive ops until the slot stops. The worker
// whose rank returns last wakes the op's blocking caller, which ends the
// op, or ends a started op itself; a next op that takes the slot
// meanwhile starts one rank late.
func (s *rankSlot) worker() {
	for r := range s.ranks {
		o := s.owner.Load()
		o.runRank(r)
		switch {
		case s.left.Add(-1) != 0:
		case o.then == nil:
			s.finished <- struct{}{}
		default:
			o.sess.end(o)
		}
	}
}

// retire drops everything the last op left on the slot. The owner goes
// first: a straggling delivery that takes a FIFO's lock after it sees
// no owner and drops its message, and one that took the lock before is
// cleared below.
func (s *rankSlot) retire() {
	s.owner.Store(nil)
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
		s.bars[n].arrived, s.bars[n].gone = 0, 0 // an aborted op can leave ranks counted
	}
	for r := range s.procs {
		s.procs[r].retire()
	}
	for i := range s.recv {
		s.recv[i].reset()
	}
}

// stop ends the slot's workers, if it has any. The slot is never run
// again.
func (s *rankSlot) stop() {
	if s.ranks != nil {
		close(s.ranks)
	}
}

// slotPool is a session's in-flight window: at most cap(tokens) rank
// slots, built as the ops first need them and kept until the session
// closes. An op holds a token from take to put; take blocks while every
// slot is busy. All slots built are either idle or hold a token.
type slotPool struct {
	spec    Spec
	lay     *layout       // spec's rank lists, shared by every slot's Procs and by Sim
	tokens  chan struct{} // one per slot taken and not yet put back
	closing chan struct{} // closed by close: wakes every waiting take
	waits   atomic.Int64  // takes that found every slot busy

	mu      sync.Mutex
	idle    []*rankSlot
	closed  bool
	drained chan struct{} // made by awaitIdle, closed when the last token comes back
}

func newSlotPool(spec Spec, window int) *slotPool {
	return &slotPool{spec: spec, lay: newLayout(spec), tokens: make(chan struct{}, window), closing: make(chan struct{})}
}

// take hands out an idle slot, or a new one while fewer than the window
// exist. When every slot is busy it waits for one, for ctx to end (a
// "cancel" RankError) or for the session to close (ErrSessionClosed).
func (p *slotPool) take(ctx context.Context) (*rankSlot, error) {
	select {
	case p.tokens <- struct{}{}:
	default:
		p.waits.Add(1)
		select {
		case p.tokens <- struct{}{}:
		case <-ctx.Done():
			return nil, &RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(ctx)}
		case <-p.closing:
			return nil, ErrSessionClosed
		}
	}
	var s *rankSlot
	p.mu.Lock()
	if p.closed {
		p.returnToken()
		p.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if n := len(p.idle); n > 0 {
		s = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = newRankSlot(p, p.spec)
	}
	return s, nil
}

// put retires a slot whose op is done with it and gives its token back.
// The slot stays idle, or stops if the pool has closed.
func (p *slotPool) put(s *rankSlot) {
	s.retire()
	p.mu.Lock()
	keep := !p.closed
	if keep {
		p.idle = append(p.idle, s)
	}
	p.returnToken()
	p.mu.Unlock()
	if !keep {
		s.stop()
	}
}

// returnToken gives one token back and wakes awaitIdle on the last one;
// the caller holds p.mu.
func (p *slotPool) returnToken() {
	<-p.tokens
	if len(p.tokens) == 0 && p.drained != nil {
		close(p.drained)
		p.drained = nil
	}
}

// awaitIdle waits until no slot is taken, or ctx ends.
func (p *slotPool) awaitIdle(ctx context.Context) error {
	p.mu.Lock()
	if len(p.tokens) == 0 {
		p.mu.Unlock()
		return nil
	}
	if p.drained == nil {
		p.drained = make(chan struct{})
	}
	drained := p.drained
	p.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// close stops every idle slot and wakes every waiting take; a slot put
// back from now on stops itself.
func (p *slotPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	close(p.closing)
	p.mu.Unlock()
	for _, s := range idle {
		s.stop()
	}
}
