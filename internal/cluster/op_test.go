package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/metrics"
)

// newBareOp builds an opRuntime over a transport with no link and no
// send schedulers: everything a rank's receive side does — ordering,
// failing, unblocking — is the runtime's own and needs no wire.
func newBareOp(spec Spec, recvTO time.Duration) *opRuntime {
	return newBareTransport(spec).newOp(context.Background(), 1, nil, nil, recvTO, nil, false)
}

func newBareTransport(spec Spec) *transport {
	return &transport{link: &link{
		spec: spec,
		lm:   newLiveMetrics(metrics.NewRegistry(), spec, EngineChan),
		reg:  newOpRegistry(),
	}}
}

// An operation admitted before its session closed can register after
// Close aborted the live ones. It must be aborted with the close cause
// at once, not wait out a receive deadline for messages the closed
// transport drops.
func TestOpRegisteredAfterCloseIsAborted(t *testing.T) {
	tr := newBareTransport(Spec{P: 2, N: 1})
	live := tr.newOp(context.Background(), 1, nil, nil, time.Hour, nil, false)
	tr.abortLive(ErrSessionClosed)
	late := tr.newOp(context.Background(), 2, nil, nil, time.Hour, nil, false)
	for name, o := range map[string]*opRuntime{"live": live, "late": late} {
		if !o.isAborted() {
			t.Fatalf("%s op not aborted by close", name)
		}
		if err := o.fails.err(); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s op failed with %v, want ErrSessionClosed", name, err)
		}
	}
}

// recovered runs fn and returns what it panicked with (nil if it
// returned), the way recoverRank sees a rank goroutine unwind.
func recovered(fn func()) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		fn()
	}()
	return out
}

func plainMsg(rank int, fill byte) block.Message {
	return block.NewPlain(rank, bytes.Repeat([]byte{fill}, 8))
}

func payloadOf(msg block.Message) byte { return msg.Chunks[0].Payload[0] }

// Each (rank, source) pair has its own FIFO: a receive from one source
// skips what other sources delivered in the meantime, and every source's
// messages come out in the order they were delivered, whether they
// arrived before the receive began or while it waited.
func TestOpRuntimeReceivesPerSourceFIFO(t *testing.T) {
	o := newBareOp(Spec{P: 3, N: 1}, time.Second)
	o.deliver(2, 0, plainMsg(2, 'C'))
	o.deliver(2, 0, plainMsg(2, 'D'))
	o.deliver(1, 0, plainMsg(1, 'A'))
	got := recovered(func() {
		for _, want := range []byte{'A', 'B'} {
			if b := payloadOf(o.recvFrom(0, 1)); b != want {
				t.Errorf("receive from 1 = %q, want %q", b, want)
			}
		}
	})
	o.deliver(2, 0, plainMsg(2, 'E'))
	o.deliver(1, 0, plainMsg(1, 'B'))
	if rec := <-got; rec != nil {
		t.Fatalf("recvFrom panicked: %v", rec)
	}
	for _, want := range []byte{'C', 'D', 'E'} {
		if b := payloadOf(o.recvFrom(0, 2)); b != want {
			t.Fatalf("receive from 2 = %q, want %q (delivered while waiting on 1)", b, want)
		}
	}
}

// An abort must unwind a rank parked in a receive and one parked in a
// node barrier with the secondary-failure sentinel, leaving the
// recorded root cause intact.
func TestOpRuntimeAbortUnblocksRecvAndBarrier(t *testing.T) {
	o := newBareOp(Spec{P: 2, N: 1}, time.Hour)
	recv := recovered(func() { o.recvFrom(0, 1) })
	bar := recovered(func() { o.awaitBarrier(1) })
	// The barrier's arrival is observable; the receive parks on its
	// select either before or after the abort, with the same outcome.
	for b := &o.bars[0]; ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		arrived := b.arrived
		b.mu.Unlock()
		if arrived == 1 {
			break
		}
	}
	cause := &RankError{Rank: 1, Peer: -1, Op: "run", Err: errors.New("boom")}
	o.failAsync(cause)
	for name, ch := range map[string]<-chan any{"recvFrom": recv, "barrier": bar} {
		select {
		case rec := <-ch:
			if rec != errRunAborted {
				t.Errorf("%s unwound with %v, want errRunAborted", name, rec)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked after abort", name)
		}
	}
	if err := o.fails.err(); err != cause {
		t.Fatalf("root cause = %v, want %v", err, cause)
	}
}

// A barrier wait shares its rank's wake channel with receives. A
// delivery nudge already in the slot must not let the wait return before
// the node's last rank arrives, and the receive that follows still gets
// the message whose nudge the barrier consumed.
func TestOpRuntimeBarrierSharesWakeWithRecv(t *testing.T) {
	o := newBareOp(Spec{P: 2, N: 1}, time.Second)
	o.deliver(0, 1, plainMsg(0, 'A')) // fills rank 1's wake slot
	bar := recovered(func() { o.awaitBarrier(1) })
	for deadline := time.Now().Add(5 * time.Second); len(o.wake[1]) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the barrier wait never took the delivery nudge")
		}
	}
	select {
	case rec := <-bar:
		t.Fatalf("barrier returned (%v) before rank 0 arrived", rec)
	case <-time.After(20 * time.Millisecond):
	}
	o.awaitBarrier(0) // the last arrival
	select {
	case rec := <-bar:
		if rec != nil {
			t.Fatalf("barrier wait panicked: %v", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier wait not released by the last arrival")
	}
	if rec := <-recovered(func() {
		if b := payloadOf(o.recvFrom(1, 0)); b != 'A' {
			t.Errorf("receive after the barrier = %q, want 'A'", b)
		}
	}); rec != nil {
		t.Fatalf("receive after the barrier panicked: %v", rec)
	}
}

// A receive nothing ever satisfies fails its own rank with a structured
// recv error after the deadline, aborts the operation, and counts one
// timeout.
func TestOpRuntimeUnmetRecvTimesOutOnce(t *testing.T) {
	o := newBareOp(Spec{P: 2, N: 1}, 20*time.Millisecond)
	rec := <-recovered(func() { o.recvFrom(0, 1) })
	re, ok := rec.(*RankError)
	if !ok || re.Rank != 0 || re.Peer != 1 || re.Op != "recv" {
		t.Fatalf("unmet receive unwound with %v, want RankError{Rank:0 Peer:1 Op:recv}", rec)
	}
	if !o.isAborted() || o.fails.err() != error(re) {
		t.Fatalf("timeout did not fail the operation: aborted=%v err=%v", o.isAborted(), o.fails.err())
	}
	// The peer unblocked by that abort must not count a second timeout.
	if rec := <-recovered(func() { o.recvFrom(1, 0) }); rec != errRunAborted {
		t.Fatalf("peer unwound with %v, want errRunAborted", rec)
	}
	if n := o.lm.recvTimeouts.Value(); n != 1 {
		t.Fatalf("recvTimeouts = %d, want 1", n)
	}
}
