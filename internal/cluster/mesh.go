package cluster

import (
	"errors"
	"sync"

	"encag/internal/block"
	"encag/internal/sched"
	"encag/internal/seal"
)

// ErrMeshDown marks transport-level failures that leave a session's
// persistent mesh unrecoverable: send retry exhaustion on organic
// (non-injected) errors, listener death, or a sequence-gate desync
// caused by wire-level corruption. Operation-level failures — context
// cancellation, fault-plan verdicts, authentication rejections,
// algorithm panics, receive timeouts — do NOT wrap ErrMeshDown and do
// not break the session; only errors matching errors.Is(err, ErrMeshDown)
// poison it.
var ErrMeshDown = errors.New("cluster: transport mesh is down")

// sendJob is one message awaiting its turn on a rank's send scheduler.
// A pipelined send (socket pairs only) carries the seal stream of its
// message's one chunk: the link seals and ships one segment at a time,
// overlapping crypto with transport.
type sendJob struct {
	op    *opRuntime
	dst   int
	msg   block.Message
	st    *seal.SealStream // non-nil: stream msg's one chunk, sealing it as it goes
	relay bool             // with st: dst relays the chunk on sealed (see Proc.SealIsend)
}

// transport is the persistent state of a chan or tcp session: one fair
// send queue — one stream per in-flight operation — and one send
// scheduler goroutine per rank, draining into the session's link, which
// holds the registry of in-flight operations. Collectives come and go
// as per-operation opRuntimes, many of them concurrently; the transport
// outlives them all until the session closes.
type transport struct {
	*link
	sendQ   []*sched.FairQueue[sendJob]
	senders sync.WaitGroup
}

// newTransport starts the per-rank send schedulers over lnk.
func newTransport(lnk *link) *transport {
	t := &transport{link: lnk, sendQ: make([]*sched.FairQueue[sendJob], lnk.spec.P)}
	for r := range t.sendQ {
		t.sendQ[r] = sched.NewFairQueue[sendJob]()
		t.senders.Add(1)
		go t.sendLoop(r)
	}
	return t
}

// sendLoop is rank src's send scheduler, the single sender for all of
// src's pairs: it drains the rank's fair queue — round-robin across the
// streams of concurrent operations, FIFO within each — into the link,
// so a slow operation can never head-of-line-block a sibling's
// messages. Once a job is written or dropped, the loop releases the
// job's reference on its op's ciphertext buffers and slot.
func (t *transport) sendLoop(src int) {
	defer t.senders.Done()
	for {
		job, ok := t.sendQ[src].Pop()
		if !ok {
			return
		}
		// An unwinding op's queued messages are moot: they are dropped.
		if !job.op.isAborted() {
			t.send(src, job)
		}
		job.op.release()
	}
}

// abortLive aborts every registered operation with the given cause, and
// every one registered from now on: an operation admitted before the
// session closed may register after (session close path).
func (t *transport) abortLive(cause error) {
	t.reg.mu.Lock()
	t.reg.closed = cause
	t.reg.mu.Unlock()
	t.reg.each(func(o *opRuntime) {
		o.failAsync(&RankError{Rank: -1, Peer: -1, Op: "closed", Err: cause})
	})
}

// queueDepth sums the send schedulers' queued messages across ranks.
func (t *transport) queueDepth() int64 {
	var total int64
	for _, q := range t.sendQ {
		total += int64(q.Len())
	}
	return total
}

// close shuts the send schedulers and the link down and waits for
// their goroutines — closing the link unblocks a scheduler stuck in a
// write.
func (t *transport) close() {
	for _, q := range t.sendQ {
		q.Close()
	}
	t.link.close()
	t.senders.Wait()
}

// opRegistry maps live operation ids to their runtimes: the link routes
// each arriving message to the runtime registered under its op-id and
// drops messages whose operation is no longer (or not yet) live —
// stragglers from completed or aborted collectives.
type opRegistry struct {
	mu     sync.RWMutex
	ops    map[uint32]*opRuntime
	closed error // set by abortLive
}

func newOpRegistry() *opRegistry {
	return &opRegistry{ops: make(map[uint32]*opRuntime)}
}

func (r *opRegistry) register(id uint32, o *opRuntime) {
	r.mu.Lock()
	r.ops[id] = o
	cause := r.closed
	r.mu.Unlock()
	if cause != nil {
		o.failAsync(&RankError{Rank: -1, Peer: -1, Op: "closed", Err: cause})
	}
}

func (r *opRegistry) deregister(id uint32) {
	r.mu.Lock()
	delete(r.ops, id)
	r.mu.Unlock()
}

func (r *opRegistry) get(id uint32) (*opRuntime, bool) {
	r.mu.RLock()
	o, ok := r.ops[id]
	r.mu.RUnlock()
	return o, ok
}

// each snapshots the live operations and calls fn for every one —
// outside the lock, so fn may abort ops (which deregister themselves
// later) without deadlocking.
func (r *opRegistry) each(fn func(*opRuntime)) {
	r.mu.RLock()
	snap := make([]*opRuntime, 0, len(r.ops))
	for _, o := range r.ops {
		snap = append(snap, o)
	}
	r.mu.RUnlock()
	for _, o := range snap {
		fn(o)
	}
}

// appendOpID binds an operation id into AEAD associated data: all
// operations of a session share one key, so without this a frame whose
// op-id byte was corrupted on the wire could be demuxed to another live
// operation and still authenticate there. With the id under the AEAD,
// cross-operation delivery fails closed at Decrypt. It appends in place:
// give it room for four more bytes.
func appendOpID(h []byte, id uint32) []byte {
	return append(h, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}
