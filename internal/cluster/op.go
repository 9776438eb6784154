package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/sched"
	"encag/internal/seal"
)

// errRunAborted marks the secondary panics of ranks unblocked by abort;
// the run reports the primary failure instead of these.
const errRunAborted = "cluster: run aborted by failure on another rank"

// opRuntime is the per-operation execution state of one collective on a
// chan or tcp session, and the only non-sim engine. It runs on a
// rankSlot it takes from its session — the ranks' goroutines, receive
// FIFOs, wake channels, deadline timers, shared memory and barriers,
// all kept from op to op — and keeps only what is the op's own: its id,
// context, sealer, fault injector, failure state, ciphertext buffers
// and, when pipelined, its incoming streams, keyed by the operation id
// every message carries. It decides how a rank's receives are ordered,
// failed and unblocked; the session's link only moves jobs from a
// rank's send queue to the destination's runtime (deliver, streams).
// Many runtimes run concurrently over one transport; aborting one
// leaves the transport and its sibling operations untouched.
type opRuntime struct {
	*rankSlot // the op's rank contexts, until its last buffer reference goes

	ctx   context.Context // the caller's: a parked rank unwinds when it ends
	spec  Spec
	slr   *seal.Sealer
	id    uint32
	pipe  bool // segment streaming on (TCP sessions with pipelining enabled)
	lm    *liveMetrics
	sendQ []*sched.FairQueue[sendJob] // the transport's per-rank send schedulers

	// Every rank runs algo on its own payload, into res; the op ends in
	// Session.end, which hands res to then, if set.
	algo     Algorithm
	payloads [][]byte
	sizes    []int64
	res      *RealResult
	out      results // the storage res.Results is assembled into
	sess     *Session
	then     func(*RealResult, error)

	inj       *fault.Injector
	wt        wallTrace // wall-clock tracing; inert unless a tracer is set
	fails     failState
	aborted   chan struct{} // closed when any rank fails: unblocks peers
	abortOnce sync.Once
	bufs      opBufs // the ciphertext buffers this op drew, and who still holds them

	// streamSeq allocates sender-side stream ids; streams holds each
	// pair's incoming pipelined message, [src*P+dst], nil between
	// streams (pipelined ops only). Only the pair's readers, which run
	// one after another, touch an entry.
	streamSeq atomic.Uint32
	streams   []*streamRecv
}

// newOp puts one collective — over a (possibly session-shared) sealer —
// on the rank slot it was admitted with and registers it as a live
// operation, making its op-id routable by the link. Unpipelined, it
// allocates the runtime and its abort channel, nothing else.
func (t *transport) newOp(ctx context.Context, slot *rankSlot, id uint32, slr *seal.Sealer, inj *fault.Injector, tracer Tracer, pipe bool) *opRuntime {
	spec := t.spec
	o := &opRuntime{
		ctx:     ctx,
		spec:    spec,
		slr:     slr,
		id:      id,
		pipe:    pipe,
		lm:      t.lm,
		sendQ:   t.sendQ,
		inj:     inj,
		wt:      wallTrace{tracer: tracer, op: id},
		aborted: make(chan struct{}),
		bufs:    opBufs{held: slot.held[:0], home: &slot.held},
	}
	o.bufs.refs.Store(1) // the running op's own reference
	if pipe {
		o.streams = make([]*streamRecv, spec.P*spec.P)
	}
	o.rankSlot = slot
	slot.owner.Store(o)
	t.reg.register(id, o)
	return o
}

// runRank runs rank r, turning a panic into the op's failure state.
func (o *opRuntime) runRank(r int) {
	defer func() { recoverRank(recover(), &o.fails, o.abort, r) }()
	p := &o.procs[r]
	p.met, p.eng, p.sizes, p.out = &o.res.PerRank[r], o, o.sizes, o.out
	pl := o.payloads[r]
	if pl == nil {
		pl = []byte{} // nil means sim mode
	}
	o.res.Results[r] = o.algo(p, p.contribution(pl, int64(len(pl))))
	o.leaveBarrier(r)
}

// release drops one reference on the op's ciphertext buffers. The last
// one — taken after the ranks have returned and the op is deregistered —
// hands the buffers back and returns the op's slot to its pool.
func (o *opRuntime) release() {
	if o.bufs.release() {
		o.pool.put(o.rankSlot)
	}
}

// finish drops the running op's own reference, recording whether it
// succeeded; called once its ranks have returned and it is deregistered.
func (o *opRuntime) finish(ok bool) {
	if o.bufs.finish(ok) {
		o.pool.put(o.rankSlot)
	}
}

// deliver appends a whole message that arrived from src to dst's FIFO
// for src and wakes dst. It never blocks: the FIFO is unbounded, so a
// slow receiver in one operation cannot hold up a socket reader that
// carries frames of others. Each src->dst pair has one delivering
// goroutine — src's sender on a memory pair, the pair's reader on a
// socket pair (its readers run one after another) — which delivers the
// pair's messages in send order, streamed ones included. Both hold a
// reference on the op as they deliver (opBufs), so its slot cannot have
// retired; the owner check, under the FIFO's lock, guards that.
func (o *opRuntime) deliver(src, dst int, msg block.Message) {
	f := &o.fifos[dst*o.spec.P+src]
	f.mu.Lock()
	if o.owner.Load() != o {
		f.mu.Unlock()
		return
	}
	if f.q == nil {
		f.q = f.one[:0]
	}
	f.q = append(f.q, msg)
	f.mu.Unlock()
	o.nudge(dst)
}

// nudge wakes rank from park. A receive and a barrier wait each re-check
// their own condition, so one may take the other's nudge.
func (o *opRuntime) nudge(rank int) {
	select {
	case o.wake[rank] <- struct{}{}:
	default:
	}
}

// msgFIFO is one (rank, source) receive queue of a slot: pushed by the
// pair's delivering goroutine, popped by the rank's goroutine. It starts
// on its own one-message array and reuses its array once drained, op
// after op.
type msgFIFO struct {
	mu   sync.Mutex
	q    []block.Message // q[head:] are queued
	head int
	one  [1]block.Message
}

// pop removes the oldest message, reporting false when there is none.
func (f *msgFIFO) pop() (block.Message, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.head == len(f.q) {
		return block.Message{}, false
	}
	msg := f.q[f.head]
	f.q[f.head] = block.Message{}
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return msg, true
}

// reset drops whatever an op left queued, keeping the array. one is
// cleared too: a FIFO that outgrew it leaves its first message there.
func (f *msgFIFO) reset() {
	f.mu.Lock()
	clear(f.q[f.head:])
	f.q, f.head = f.q[:0], 0
	f.one = [1]block.Message{}
	f.mu.Unlock()
}

// abort unwinds this operation only: ranks blocked in receives,
// barriers and send backoffs observe it and drain. The transport — and
// any sibling operation in flight on it — is untouched; messages of
// this op still in the queues or on the wire are dropped by the send
// scheduler and the demux.
func (o *opRuntime) abort() {
	o.abortOnce.Do(func() { close(o.aborted) })
}

func (o *opRuntime) isAborted() bool {
	select {
	case <-o.aborted:
		return true
	default:
		return false
	}
}

// fail records the run's first root-cause error, unblocks every other
// rank of this operation, and unwinds this one. Called on rank
// goroutines only (it panics); everything else uses failAsync.
func (o *opRuntime) fail(re *RankError) {
	o.failAsync(re)
	panic(re)
}

// failAsync is fail for non-rank goroutines (send scheduler, link
// readers, session close): record the root cause and abort, without a
// panic.
func (o *opRuntime) failAsync(re *RankError) {
	o.fails.record(re)
	o.abort()
}

// opShm is one node's shared-memory segment; its map is made by the
// first ShmPut, so a slot whose ops share nothing allocates none, and
// is emptied, not dropped, when the slot retires.
type opShm struct {
	mu sync.RWMutex
	m  map[ShmKey]block.Message
}

// opBarrier is one node's barrier. It keeps no wait state of its own:
// a rank that is not last parks, as a receive does, and the last rank
// to arrive advances the generation and nudges the others. gone counts
// the ranks returned from the algorithm, which never arrive again.
type opBarrier struct {
	mu      sync.Mutex // guards arrived and gone
	n       int
	arrived int
	gone    int
	gen     atomic.Uint32
}

// awaitBarrier blocks rank until every rank of its node has arrived.
func (o *opRuntime) awaitBarrier(rank int) {
	if o.isAborted() {
		panic(errRunAborted)
	}
	node := o.spec.NodeOf(rank)
	b := &o.bars[node]
	b.mu.Lock()
	if gone := b.gone; gone > 0 {
		b.mu.Unlock()
		o.fail(&RankError{Rank: rank, Peer: -1, Op: "barrier", Err: fmt.Errorf("node %d: %d of its ranks already returned", node, gone)})
	}
	gen := b.gen.Load()
	if b.arrived++; b.arrived == b.n {
		b.arrived = 0
		b.gen.Add(1)
		b.mu.Unlock()
		for r := range o.wake {
			if r != rank && o.spec.NodeOf(r) == node {
				o.nudge(r)
			}
		}
		return
	}
	b.mu.Unlock()
	for b.gen.Load() == gen {
		o.park(rank, nil)
	}
}

// leaveBarrier counts rank out of its node's barrier once it returns: a
// peer parked there, or arriving later (awaitBarrier), would wait forever.
func (o *opRuntime) leaveBarrier(rank int) {
	b := &o.bars[o.spec.NodeOf(rank)]
	b.mu.Lock()
	b.gone++
	waiting := b.arrived
	b.mu.Unlock()
	if waiting > 0 && !o.isAborted() { // an aborted op's parked ranks are unwinding
		o.fail(&RankError{Rank: rank, Peer: -1, Op: "barrier", Err: fmt.Errorf("node %d: returned while %d of its ranks wait", o.spec.NodeOf(rank), waiting)})
	}
}

// park is the one way a rank waits: until a nudge (false) or deadline,
// nil for none, fires (true). It unwinds the rank once the op aborts or
// the caller's context ends.
func (o *opRuntime) park(rank int, deadline <-chan time.Time) (expired bool) {
	select {
	case <-o.wake[rank]:
	case <-deadline:
		return true
	case <-o.aborted:
		panic(errRunAborted)
	case <-o.ctx.Done():
		o.fail(&RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(o.ctx)})
	}
	return false
}

type sendReq struct{}
type recvReq struct{ src int }

func (sendReq) isRequest() {}
func (recvReq) isRequest() {}

// isend enqueues the message on the rank's send scheduler and returns
// immediately — the scheduler interleaves the streams of concurrent
// operations fairly, applies this operation's fault verdicts in the
// rank's program order per pair (keeping plans deterministic), and a
// blocked link never stalls the rank goroutine. A message whose one
// chunk SealIsend left to st (pipelined, to another node) streams
// segment by segment; anything else travels whole. Every queued job
// holds a reference on the op's ciphertext buffers (and so on its slot)
// until the send loop is done with it; a job the closed queue refuses
// gives its reference back at once.
func (o *opRuntime) isend(p *Proc, dst int, msg block.Message, st *seal.SealStream, relay bool) Request {
	if o.isAborted() {
		panic(errRunAborted)
	}
	job := sendJob{op: o, dst: dst, msg: msg, st: st, relay: relay}
	o.bufs.hold()
	if !o.sendQ[p.rank].Push(o.id, job) {
		o.release()
	}
	return sendReq{}
}

// alloc draws an n-byte ciphertext buffer for this op (see opBufs).
func (o *opRuntime) alloc(n int) []byte {
	b := cipherBufs.get(n)
	o.bufs.keep(b)
	return b
}

func (o *opRuntime) irecv(p *Proc, src int) Request {
	return recvReq{src: src}
}

func (o *opRuntime) wait(p *Proc, req Request) block.Message {
	rr, ok := req.(recvReq)
	if !ok {
		return block.Message{} // a send is already enqueued
	}
	var start float64
	if o.wt.active() {
		start = o.wt.now()
	}
	msg := o.recvFrom(p.rank, rr.src)
	if o.wt.active() {
		o.wt.emit(p.rank, TraceRecv, start, msg.WireLen(), rr.src)
	}
	return msg
}

// recvFrom returns the next message from src to rank: the head of the
// (rank, src) FIFO, so rank consumes each source's messages in send
// order whatever other sources deliver in between. A wake-up for another
// source's message just re-checks the FIFO. The wait is bounded by the
// recv deadline: a message that never arrives (lost to a fault, peer
// death) surfaces as a structured recv error instead of a deadlock.
func (o *opRuntime) recvFrom(rank, src int) block.Message {
	fifo := &o.fifos[rank*o.spec.P+src]
	var deadline <-chan time.Time // armed when the receive first has to wait
	defer func() {
		if deadline != nil {
			o.recvTimer[rank].Stop()
		}
	}()
	for {
		if msg, ok := fifo.pop(); ok {
			return msg
		}
		if deadline == nil {
			deadline = o.armRecvDeadline(rank)
		}
		if o.park(rank, deadline) {
			if o.recvTimer[rank].Stop() { // still pending: an earlier receive's tick
				o.recvTimer[rank].Reset(o.spec.RecvTimeout)
				continue
			}
			o.lm.recvTimeouts.Inc()
			o.fail(&RankError{Rank: rank, Peer: src, Op: "recv",
				Err: fmt.Errorf("no message within %v", o.spec.RecvTimeout)})
		}
	}
}

// armRecvDeadline starts rank's receive deadline: the slot's timer for
// the rank, re-armed per receive, never a new one. Only the rank's
// goroutine touches it, and stops it when the receive ends. Under go
// 1.22 timer semantics a tick that fired as the timer stopped stays in
// its channel for the rank's next receive, which takes it for its own
// deadline only once its timer is no longer pending (recvFrom).
func (o *opRuntime) armRecvDeadline(rank int) <-chan time.Time {
	t := o.recvTimer[rank]
	t.Reset(o.spec.RecvTimeout)
	return t.C
}

func (o *opRuntime) span(p *Proc, kind TraceKind, n int64) func() {
	return o.wt.span(p.rank, kind, n)
}

func (o *opRuntime) shmPut(p *Proc, key ShmKey, msg block.Message) {
	s := &o.shm[p.Node()]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[ShmKey]block.Message)
	}
	s.m[key] = msg
	s.mu.Unlock()
}

func (o *opRuntime) shmGet(p *Proc, key ShmKey) (block.Message, bool) {
	s := &o.shm[p.Node()]
	s.mu.RLock()
	msg, ok := s.m[key]
	s.mu.RUnlock()
	return msg, ok
}

func (o *opRuntime) nodeBarrier(p *Proc) {
	end := o.wt.span(p.rank, TraceBarrier, 0)
	o.awaitBarrier(p.rank)
	end()
}

func (o *opRuntime) sealer() *seal.Sealer { return o.slr }

func (o *opRuntime) pipeline() bool { return o.pipe }

// aad binds this operation's id into the AEAD associated data (see
// appendOpID): concurrent operations share the session key, so a frame
// whose op-id was corrupted on the wire into another live operation's
// id fails authentication there instead of being accepted.
func (o *opRuntime) aad(dst []byte, blocks []block.Block) []byte {
	dst = slices.Grow(dst, block.HeaderLen(len(blocks))+4)
	return appendOpID(block.AppendHeader(dst, blocks), o.id)
}
