package encag

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/cluster"
)

// gated registers, for the test's duration, an algorithm whose ranks
// wait until open is called and then run o-ring, or fail with fail when
// it is set: an operation the test holds in flight as long as it likes,
// without stalling the session's shared send loops as a fault plan's
// stall would.
func gated(t *testing.T, name string, fail error) (a Alg, open func()) {
	t.Helper()
	gate := make(chan struct{})
	ring := lookup(AlgORing)
	a = Alg(name)
	algTable[a] = algEntry{impl: func(p *cluster.Proc, mine block.Message) block.Message {
		<-gate
		if fail != nil {
			panic(&cluster.RankError{Rank: p.Rank(), Peer: -1, Op: "run", Err: fail})
		}
		return ring(p, mine)
	}}
	t.Cleanup(func() { delete(algTable, a) })
	var once sync.Once
	return a, func() { once.Do(func() { close(gate) }) }
}

// openChanSession opens a chan session with the given window and
// closes it when the test ends.
func openChanSession(t *testing.T, window int) *Session {
	t.Helper()
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithMaxInFlight(window))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TryWait reports nothing while the operation is in flight and, once it
// has finished, the result Wait returns.
func TestHandleTryWait(t *testing.T) {
	s := openChanSession(t, 2)
	alg, open := gated(t, "gated", nil)
	h, err := s.Start(context.Background(), alg, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.TryWait(); ok {
		t.Fatal("TryWait reported completion while the op was in flight")
	}
	open()
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, err, ok := h.TryWait(); !ok || got != want || err != nil {
		t.Fatalf("TryWait after completion = (%p, %v, %v), want (%p, nil, true)", got, err, ok, want)
	}
}

// WaitAll reports the earliest-started failure even when a later-started
// operation failed first.
func TestWaitAllFirstErrorInStartOrder(t *testing.T) {
	s := openChanSession(t, 4)
	errEarly, errLate := errors.New("early"), errors.New("late")
	earlyAlg, openEarly := gated(t, "gated-early", errEarly)
	lateAlg, openLate := gated(t, "gated-late", errLate)
	if _, err := s.Start(context.Background(), AlgORing, 512); err != nil {
		t.Fatal(err)
	}
	early, err := s.Start(context.Background(), earlyAlg, 512)
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.Start(context.Background(), lateAlg, 512)
	if err != nil {
		t.Fatal(err)
	}
	openLate()
	if err := late.Err(); !errors.Is(err, errLate) {
		t.Fatalf("later op error = %v, want %v", err, errLate)
	}
	openEarly()
	if err := early.Err(); !errors.Is(err, errEarly) {
		t.Fatalf("earlier op error = %v, want %v", err, errEarly)
	}
	if err := s.WaitAll(context.Background()); !errors.Is(err, errEarly) {
		t.Fatalf("WaitAll = %v, want the earlier-started op's error", err)
	}
}

// The session keeps no handle: once the caller has collected a result
// and dropped its handle, the result is garbage.
func TestCollectedHandleIsReleased(t *testing.T) {
	for _, eng := range []Engine{EngineChan, EngineTCP} {
		s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Start(context.Background(), AlgORing, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		freed := make(chan struct{})
		runtime.SetFinalizer(res, func(*RunResult) { close(freed) })
		res, h = nil, nil
		if err := s.WaitAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		for deadline := time.After(10 * time.Second); ; {
			runtime.GC()
			select {
			case <-freed:
			case <-deadline:
				t.Fatalf("%s: a collected result is still reachable from its session", eng)
			case <-time.After(10 * time.Millisecond):
				continue
			}
			break
		}
		s.Close() // the session stayed reachable until here
	}
}

// WaitAll returns only once every started operation has finished and
// the window is empty.
func TestWaitAllBlocksUntilDrained(t *testing.T) {
	s := openChanSession(t, 8)
	alg, open := gated(t, "gated", nil)
	var started []*Handle
	for i := 0; i < 6; i++ {
		h, err := s.Start(context.Background(), alg, 512)
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, h)
	}
	time.AfterFunc(20*time.Millisecond, open)
	if err := s.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, h := range started {
		if _, err, ok := h.TryWait(); !ok || err != nil {
			t.Fatalf("op %d after WaitAll: done %v, err %v", i, ok, err)
		}
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("InFlight() = %d after WaitAll, want 0", n)
	}
}

// WaitAll under a cancelled context returns its cause; the operations
// keep running and complete.
func TestWaitAllCancel(t *testing.T) {
	s := openChanSession(t, 1)
	alg, open := gated(t, "gated", nil)
	h, err := s.Start(context.Background(), alg, 512)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WaitAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitAll under a cancelled ctx = %v", err)
	}
	open()
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// An operation started while WaitAll is blocked is waited for too, and
// its error is what WaitAll reports: the first operation finishing does
// not end the wait while the second is still in flight.
func TestWaitAllWaitsForOpsStartedWhileBlocked(t *testing.T) {
	s := openChanSession(t, 2)
	errB := errors.New("second op failed")
	algA, openA := gated(t, "gated-a", nil)
	algB, openB := gated(t, "gated-b", errB)
	a, err := s.Start(context.Background(), algA, 512)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- s.WaitAll(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let WaitAll park on the first op
	b, err := s.Start(context.Background(), algB, 512)
	if err != nil {
		t.Fatal(err)
	}
	openA()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		t.Fatalf("WaitAll returned %v with the second op still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	openB()
	if err := b.Err(); !errors.Is(err, errB) {
		t.Fatalf("second op error = %v, want %v", err, errB)
	}
	select {
	case err := <-waited:
		if !errors.Is(err, errB) {
			t.Fatalf("WaitAll = %v, want the second op's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAll still blocked after every op completed")
	}
}

// The window bounds Start and blocking calls alike. A call that finds
// it full waits, and ends with a cancel RankError when its context ends
// or an error wrapping ErrSessionClosed when the session closes,
// starting nothing either way.
func TestStartWaitsForTheWindow(t *testing.T) {
	s := openChanSession(t, 1)
	alg, open := gated(t, "gated", nil)
	defer open()
	hold, err := s.Start(context.Background(), alg, 512)
	if err != nil {
		t.Fatal(err)
	}
	started := s.Snapshot().OpsStarted
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var re *RankError
	if _, err := s.Start(ctx, AlgORing, 512); !errors.As(err, &re) || re.Op != "cancel" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Start past a full window until its ctx ended = %v, want a cancel RankError", err)
	}
	if _, err := s.Run(ctx, AlgORing, 512); !errors.As(err, &re) || re.Op != "cancel" {
		t.Fatalf("Run past a full window with an ended ctx = %v, want a cancel RankError", err)
	}
	snap := s.Snapshot()
	if snap.OpsStarted != started || snap.WindowWaits != 1 || snap.InFlight != 1 || snap.Window != 1 {
		t.Fatalf("after the refused calls: started %d (want %d), window waits %d, in flight %d, window %d",
			snap.OpsStarted, started, snap.WindowWaits, snap.InFlight, snap.Window)
	}
	waiting := make(chan error, 2)
	go func() {
		_, err := s.Start(context.Background(), AlgORing, 512)
		waiting <- err
	}()
	go func() {
		_, err := s.Run(context.Background(), AlgORing, 512)
		waiting <- err
	}()
	for s.Snapshot().WindowWaits != 3 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	for i := 0; i < 2; i++ {
		if err := <-waiting; !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("call waiting at Close = %v, want ErrSessionClosed", err)
		}
	}
	open()
	if err := hold.Err(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("op in flight at Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Start(context.Background(), AlgORing, 512); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Start after Close = %v, want ErrSessionClosed", err)
	}
}
