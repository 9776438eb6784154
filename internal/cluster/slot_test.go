package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
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
		idle := s.slots.idleSlots()
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
// it: a delivery through the old op's runtime — which nothing that holds
// a reference on the op can make, but the owner check guards — is
// dropped and never reaches the new owner's FIFO, and what the old op
// left queued is gone.
func TestRetiredSlotDropsStragglers(t *testing.T) {
	tr := newBareTransport(Spec{P: 2, N: 1})
	pool := newSlotPool(tr.spec, DefaultMaxInFlight)
	a := pool.takeOp(tr, 1, nil, time.Second)
	a.deliver(1, 0, plainMsg(1, 'A')) // never received
	tr.reg.deregister(1)
	a.finish(true)
	b := pool.takeOp(tr, 2, nil, time.Second)
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
	pool := newSlotPool(tr.spec, DefaultMaxInFlight)
	var id uint32
	allocs := testing.AllocsPerRun(200, func() {
		id++
		o := pool.takeOp(tr, id, nil, time.Second)
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
	o := s.slots.takeOp(s.tr, 1, nil, time.Second)
	s.tr.sendQ[0].Close()
	o.isend(&o.procs[0], 1, plainMsg(0, 'X'), nil, false)
	s.tr.reg.deregister(1)
	o.finish(true)
	if n := len(s.slots.idleSlots()); n != 1 {
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
// FIFO, in shared memory, in a rank's Wait and seal scratch and in its
// arena's chunk and message slabs is collectable while the session, and
// the slot, live on.
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
			_ = append(p.Chunks(1), newTracked(0, &freed).Chunks...)
			_ = append(p.Messages(1), newTracked(0, &freed))
		} else {
			p.Recv(0)
		}
		return mine
	}
	// The first op grows the arena's slabs, so the second draws from them.
	for op := 0; op < 2; op++ {
		if _, err := s.Collective(context.Background(), Op{Algo: leave, MsgSize: 8}); err != nil {
			t.Fatal(err)
		}
	}
	awaitIdle(t, s, 1)
	awaitCollected(t, &freed, 12)

	// On TCP an inter-node frame is decoded into its op's arena for the
	// pair (rankSlot.recv), which must not pin the payload either.
	tcp, err := OpenSession(Spec{P: 2, N: 2, Mapping: BlockMapping}, SessionConfig{Engine: EngineTCP, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	var freedTCP atomic.Int32
	recvd := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Send(1, block.NewPlain(0, make([]byte, 4<<10)))
		} else {
			b := p.Recv(0).Chunks[0].Payload // the reader's own make
			runtime.SetFinalizer(&b[0], func(*byte) { freedTCP.Add(1) })
		}
		return mine
	}
	for op := 0; op < 2; op++ {
		if _, err := tcp.Collective(context.Background(), Op{Algo: recvd, MsgSize: 8}); err != nil {
			t.Fatal(err)
		}
	}
	awaitIdle(t, tcp, 1)
	awaitCollected(t, &freedTCP, 2)
}

// awaitCollected runs the collector until freed reaches n.
func awaitCollected(t *testing.T, freed *atomic.Int32, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d payloads collected while the slot is idle", freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// Frames that reach a socket reader after their op has ended — held
// back by a read stall, behind one the reader took while the op was
// live — are stragglers (all but the first behind it, which the reader
// may still take while the op ends): decoded into the reader's own storage and
// dropped. At one op in flight the next op runs on the same slot and
// pair, and no straggler draws from its pair arena or delivers into its
// FIFOs: the pair arena holds exactly the next op's one frame from rank
// 0 when rank 1 has received it, and its result is byte-exact.
func TestStragglerFramesMissTheNextOp(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const spray = 4
	stall := &fault.Plan{Rules: []fault.Rule{{Src: 0, Dst: 1, Kind: fault.StallRead, Delay: 20 * time.Millisecond, Times: -1}}}
	// Rank 1 receives the first frame, which the reader takes while the
	// op is live and stalls; the spray behind it arrives once rank 1 has
	// returned.
	leave := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 1 {
			p.Recv(0)
			return mine
		}
		for range 1 + spray {
			p.Isend(1, block.Message{Chunks: []block.Chunk{p.Encrypt(mine.Chunks...)}})
		}
		return mine
	}
	var drew atomic.Value
	checked := func(p *Proc, mine block.Message) block.Message {
		res := encRing(p, mine)
		if p.Rank() == 1 {
			// Rank 0 sends rank 1 one one-chunk frame, delivered before
			// this: the pair's reader has drawn all it will for this op.
			a := &p.eng.(*opRuntime).recv[0*spec.P+1]
			drew.Store([2]int{len(a.chunks.buf) + a.chunks.spilt, len(a.blocks.buf) + a.blocks.spilt})
		}
		return res
	}
	const m = 3000
	for i := 0; i < 5; i++ {
		if _, err := s.Collective(context.Background(), Op{Algo: leave, MsgSize: m, Plan: stall}); err != nil {
			t.Fatalf("round %d: stalled op: %v", i, err)
		}
		res, err := s.Collective(context.Background(), Op{Algo: checked, MsgSize: m})
		if err != nil {
			t.Fatalf("round %d: next op: %v", i, err)
		}
		contract(t, s, block.UniformSizes(spec.P, m), res)
		if got := drew.Load().([2]int); got != [2]int{1, 1} {
			t.Fatalf("round %d: the next op's pair arena drew %d chunks and %d blocks, want 1 and 1", i, got[0], got[1])
		}
	}
	if n := s.lm.stragglers.Value(); n < 5*(spray-1) {
		t.Fatalf("%d stragglers dropped, want at least %d", n, 5*(spray-1))
	}
}

// awaitSocketReaders waits until n connection readers run: a TCP
// session's link starts them as it accepts its dialed connections,
// after OpenSession has returned.
func awaitSocketReaders(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := strings.Count(string(stacks()), "(*link).serveConn(")
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d socket readers running, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The rank-slot pool is the session's one in-flight window. Callers far
// beyond it all succeed byte-exact, and at every sample the session
// runs at most window × P rank goroutines beside what it ran idle and
// the callers themselves; a serial op then reuses the newest slot. An op
// still running at Close fails wrapping ErrSessionClosed, and its slot
// stops when it unwinds: none of the session's goroutines remain.
func TestSlotGoroutinesBoundedAndGoneAfterClose(t *testing.T) {
	const window, callers = 2, 64
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping, RecvTimeout: time.Hour}
	for _, engine := range opEngines {
		before := live()
		s, err := OpenSession(spec, SessionConfig{Engine: engine, MaxInFlight: window})
		if err != nil {
			t.Fatal(err)
		}
		if engine == EngineTCP {
			awaitSocketReaders(t, spec.P*(spec.P-spec.Ell()))
		}
		// The session's send loops, accept loops and socket readers are
		// all running: the baseline.
		bound := runtime.NumGoroutine() + callers + window*spec.P
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 1000})
				if err == nil {
					contract(t, s, block.UniformSizes(spec.P, 1000), res)
				}
				errs <- err
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		peak := 0
		var peakStacks []byte // every goroutine at the highest peak above the bound
		for sampling := true; sampling; {
			select {
			case <-done:
				sampling = false
			default:
				time.Sleep(100 * time.Microsecond)
			}
			// The waiter above is one more goroutine than the callers.
			if n := runtime.NumGoroutine() - 1; n > peak {
				peak = n
				if peak > bound {
					peakStacks = stacks()
				}
			}
		}
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
		}
		if peak > bound {
			t.Fatalf("%v: %d goroutines at peak, want at most %d (baseline + %d callers + %d × %d ranks)\n%s",
				engine, peak, bound, callers, window, spec.P, peakStacks)
		}
		if waits := s.WindowWaits(); waits == 0 {
			t.Fatalf("%v: %d callers through a window of %d never waited", engine, callers, window)
		}
		idle := awaitIdle(t, s, window)
		if _, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 1000}); err != nil {
			t.Fatalf("%v: serial op: %v", engine, err)
		}
		if again := awaitIdle(t, s, window); again[len(again)-1] != idle[len(idle)-1] {
			t.Fatalf("%v: the serial op did not run on the newest idle slot", engine)
		}

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
		drained(t, before)
	}
}

// A caller that finds every rank slot taken waits for one. If its
// context ends first it gets the "cancel" RankError a cancelled context
// gets at once, is not counted as started and leaves the session
// healthy; a caller still waiting at Close gets ErrSessionClosed. InFlight
// and WindowWaits read the pool.
func TestWindowWaitEndsOnCancelAndClose(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping, RecvTimeout: time.Hour}
	for _, engine := range opEngines {
		s, err := OpenSession(spec, SessionConfig{Engine: engine, MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.MaxInFlight() != 1 {
			t.Fatalf("%v: MaxInFlight() = %d, want 1", engine, s.MaxInFlight())
		}
		holdCtx, release := context.WithCancel(context.Background())
		held := make(chan error, 1)
		go func() {
			_, err := s.Collective(holdCtx, Op{Algo: stallRank0, MsgSize: 8})
			held <- err
		}()
		for s.InFlight() != 1 {
			time.Sleep(time.Millisecond)
		}
		started := s.Snapshot().OpsStarted

		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		_, err = s.Collective(ctx, Op{Algo: encRing, MsgSize: 8})
		var re *RankError
		if !errors.As(err, &re) || re.Op != "cancel" || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: cancelled while waiting = %v, want a cancel RankError", engine, err)
		}
		if got := s.Snapshot().OpsStarted; got != started {
			t.Fatalf("%v: a caller that never got a slot counted as started (%d -> %d)", engine, started, got)
		}
		if s.WindowWaits() != 1 || s.Err() != nil {
			t.Fatalf("%v: window waits %d, session error %v after a cancelled wait", engine, s.WindowWaits(), s.Err())
		}

		waiting := make(chan error, 1)
		go func() {
			_, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 8})
			waiting <- err
		}()
		for s.WindowWaits() != 2 {
			time.Sleep(time.Millisecond)
		}
		s.Close()
		if err := <-waiting; !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%v: waiting at Close = %v, want ErrSessionClosed", engine, err)
		}
		if err := <-held; !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%v: running at Close = %v, want ErrSessionClosed", engine, err)
		}
		release()
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
			contract(t, s, block.UniformSizes(spec.P, 64), res)
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
