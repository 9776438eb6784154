package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
)

// idleSlots returns the slots the pool keeps, newest last.
func (p *slotPool) idleSlots() []*rankSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*rankSlot(nil), p.idle...)
}

// awaitIdle waits until s's pool keeps n slots: an op's slot comes back
// with its last buffer reference, which a send loop may drop after
// Collective has returned.
func awaitIdle(t *testing.T, s *Session, n int) []*rankSlot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle := s.tr.slots.idleSlots()
		if len(idle) == n {
			return idle
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool keeps %d idle slots, want %d", len(idle), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// An op that has handed its slot back cannot reach the next op through
// it: a delivery through the old op's runtime, as a reader that found it
// just before its deregistration makes, is dropped and never reaches the
// new owner's FIFO, and what the old op left queued is gone.
func TestRetiredSlotDropsStragglers(t *testing.T) {
	tr := newBareTransport(Spec{P: 2, N: 1})
	tr.slots.max = 1
	a := tr.newOp(context.Background(), 1, nil, nil, time.Second, nil, false)
	a.deliver(1, 0, plainMsg(1, 'A')) // never received
	tr.reg.deregister(1)
	a.finish(true)
	b := tr.newOp(context.Background(), 2, nil, nil, time.Second, nil, false)
	if a.rankSlot != b.rankSlot {
		t.Fatal("the second op did not reuse the idle slot")
	}
	a.deliver(1, 0, plainMsg(1, 'S'))
	if msg, ok := b.fifos[0*2+1].pop(); ok {
		t.Fatalf("the new owner's FIFO holds %q from the retired op", payloadOf(msg))
	}
	b.deliver(1, 0, plainMsg(1, 'B'))
	if rec := <-recovered(func() {
		if got := payloadOf(b.recvFrom(0, 1)); got != 'B' {
			t.Errorf("receive on the reused slot = %q, want 'B'", got)
		}
	}); rec != nil {
		t.Fatalf("receive on the reused slot panicked: %v", rec)
	}
}

// Admitting an unpipelined op takes an idle slot and allocates only the
// runtime and its abort channel.
func TestNewOpAllocs(t *testing.T) {
	tr := newBareTransport(Spec{P: 8, N: 4})
	tr.slots.max = 1
	var id uint32
	allocs := testing.AllocsPerRun(200, func() {
		id++
		o := tr.newOp(context.Background(), id, nil, nil, time.Second, nil, false)
		tr.reg.deregister(id)
		o.finish(true)
	})
	if allocs > 3 {
		t.Fatalf("newOp allocates %.0f objects, want at most 3", allocs)
	}
}

// A send the closed queue refuses gives its reference back at once, so
// the op's own release still returns its slot.
func TestRefusedSendReleasesSlot(t *testing.T) {
	s := openRecycling(t, Spec{P: 2, N: 1}, EngineChan)
	o := s.tr.newOp(context.Background(), 1, nil, nil, time.Second, nil, false)
	s.tr.sendQ[0].Close()
	o.isend(&o.procs[0], 1, plainMsg(0, 'X'))
	s.tr.reg.deregister(1)
	o.finish(true)
	if n := len(s.tr.slots.idleSlots()); n != 1 {
		t.Fatalf("pool keeps %d idle slots after the op, want 1", n)
	}
}

// tracked is a payload whose collection a test can observe.
type tracked struct{ b [4 << 10]byte }

// newTracked returns a payload that counts freed when the collector
// takes it.
func newTracked(rank int, freed *atomic.Int32) block.Message {
	p := new(tracked)
	runtime.SetFinalizer(p, func(*tracked) { freed.Add(1) })
	return block.NewPlain(rank, p.b[:])
}

// An idle slot pins no payload: what its last op left in a receive
// FIFO, in shared memory and in a rank's Wait and seal scratch is
// collectable while the session, and the slot, live on.
func TestIdleSlotPinsNoPayload(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var freed atomic.Int32
	leave := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Send(1, newTracked(0, &freed)) // received into rank 1's scratch
			p.Send(1, newTracked(0, &freed)) // never received
			p.ShmPut(shmKey("left", 0), newTracked(0, &freed))
			p.Encrypt(newTracked(0, &freed).Chunks...) // gathered from rank 0's scratch
		} else {
			p.Recv(0)
		}
		return mine
	}
	if _, err := s.Collective(context.Background(), Op{Algo: leave, MsgSize: 8}); err != nil {
		t.Fatal(err)
	}
	awaitIdle(t, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 payloads collected while the slot is idle", freed.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// Blocking callers beyond the window all succeed byte-exact on transient
// slots, whose workers exit; the session then keeps at most window × P
// idle goroutines, and a serial op starts none. Close stops the idle
// slots, and a slot still in use at Close stops when its op unwinds
// after Close has returned: none of the session's goroutines remain.
func TestSlotGoroutinesBoundedAndGoneAfterClose(t *testing.T) {
	const window, callers = 2, 6
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping, RecvTimeout: time.Hour}
	for _, engine := range opEngines {
		before := runtime.NumGoroutine()
		s, err := OpenSession(spec, SessionConfig{Engine: engine, MaxInFlight: window})
		if err != nil {
			t.Fatal(err)
		}
		opened := runtime.NumGoroutine()
		for round := 0; round < 3; round++ {
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 1000})
					if err == nil {
						err = ValidateGather(spec, 1000, res.Results, true)
					}
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatalf("%v round %d: %v", engine, round, err)
				}
			}
		}
		idle := awaitIdle(t, s, window)
		awaitGoroutines(t, engine, opened+window*spec.P)
		if _, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 1000}); err != nil {
			t.Fatalf("%v: serial op: %v", engine, err)
		}
		if again := awaitIdle(t, s, window); again[len(again)-1] != idle[len(idle)-1] {
			t.Fatalf("%v: the serial op did not run on the newest idle slot", engine)
		}
		awaitGoroutines(t, engine, opened+window*spec.P)

		// Rank 0 unwinds slowly, so its slot comes back after Close.
		lingering := func(p *Proc, mine block.Message) block.Message {
			if p.Rank() == 0 {
				defer time.Sleep(100 * time.Millisecond)
			}
			return stallRank0(p, mine)
		}
		parked := make(chan error, 1)
		go func() {
			_, err := s.Collective(context.Background(), Op{Algo: lingering, MsgSize: 8})
			parked <- err
		}()
		for s.InFlight() == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		s.Close()
		var re *RankError
		if err := <-parked; !errors.As(err, &re) || re.Op != "closed" || !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%v: op in flight at Close = %v, want Op closed wrapping ErrSessionClosed", engine, err)
		}
		awaitGoroutines(t, engine, before)
	}
}

// A failed op leaves nothing on its slot that the next op would see: a
// cancelled op (ranks parked in a receive and a barrier), a receive
// timeout and a fault-plan failure are each followed, on the same slot,
// by a byte-exact op that uses shared memory, barriers and sealing.
func TestFailedOpLeavesSlotClean(t *testing.T) {
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping, RecvTimeout: 300 * time.Millisecond}
	parkAll := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Recv(1) // rank 1 never sends
		}
		p.NodeBarrier()
		return mine
	}
	dropToNode1 := &fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 4, Frame: -1, Kind: fault.Drop, Times: -1},
	}}
	failures := []struct {
		op     string
		cancel bool
		run    Op
	}{
		{"cancel", true, Op{Algo: parkAll, MsgSize: 64}},
		{"recv", false, Op{Algo: parkAll, MsgSize: 64}},
		{"send", false, Op{Algo: leaderShmGather, MsgSize: 64, Plan: dropToNode1}},
	}
	for _, engine := range opEngines {
		s, err := OpenSession(spec, SessionConfig{Engine: engine, MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			res, err := s.Collective(context.Background(), Op{Algo: leaderShmGather, MsgSize: 64})
			if err != nil {
				t.Fatalf("%v %s: %v", engine, when, err)
			}
			if err := ValidateGather(spec, 64, res.Results, true); err != nil {
				t.Fatalf("%v %s: %v", engine, when, err)
			}
		}
		check("first op")
		slot := awaitIdle(t, s, 1)[0]
		for _, f := range failures {
			ctx, cancel := context.WithCancel(context.Background())
			if f.cancel {
				time.AfterFunc(50*time.Millisecond, cancel)
			}
			_, err := s.Collective(ctx, f.run)
			cancel()
			var re *RankError
			if !errors.As(err, &re) || re.Op != f.op {
				t.Fatalf("%v: failing op = %v, want Op %s", engine, err, f.op)
			}
			if awaitIdle(t, s, 1)[0] != slot {
				t.Fatalf("%v: the op after %s did not get the same slot", engine, f.op)
			}
			check("after " + f.op)
			if awaitIdle(t, s, 1)[0] != slot {
				t.Fatalf("%v: the op after %s did not run on the same slot", engine, f.op)
			}
		}
		s.Close()
	}
}
