package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain is the goroutine-leak fence for the scheduler package: the
// same pattern as internal/cluster's fence. Scheduler runners and
// FairQueue poppers must all drain back to baseline after every test,
// including the ones that cancel N concurrent ops mid-flight.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base+2 {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				fmt.Fprintf(os.Stderr,
					"goroutine leak: %d live, baseline %d\n%s\n",
					runtime.NumGoroutine(), base, buf)
				code = 1
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	os.Exit(code)
}

func TestHandleCompletesOnce(t *testing.T) {
	s := New[int](2)
	h, err := s.Start(context.Background(), func() (int, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	for i := 0; i < 3; i++ {
		v, err := h.Wait()
		if v != 42 || err != nil {
			t.Fatalf("Wait #%d = (%d, %v), want (42, nil)", i, v, err)
		}
	}
}

func TestHandleTryWait(t *testing.T) {
	release := make(chan struct{})
	s := New[string](1)
	h, err := s.Start(context.Background(), func() (string, error) {
		<-release
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.TryWait(); ok {
		t.Fatal("TryWait reported completion while op in flight")
	}
	close(release)
	<-h.Done()
	if v, err, ok := h.TryWait(); !ok || v != "done" || err != nil {
		t.Fatalf("TryWait after completion = (%q, %v, %v)", v, err, ok)
	}
}

// The window must apply backpressure: with MaxInFlight=2, a third Start
// blocks until one of the first two completes.
func TestWindowBackpressure(t *testing.T) {
	s := New[int](2)
	release := make(chan struct{})
	var peak, cur atomic.Int32
	op := func() (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		return 0, nil
	}

	var hs []*Handle[int]
	for i := 0; i < 2; i++ {
		h, err := s.Start(context.Background(), op)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}

	started := make(chan *Handle[int])
	go func() {
		h, err := s.Start(context.Background(), op)
		if err != nil {
			t.Error(err)
		}
		started <- h
	}()
	select {
	case <-started:
		t.Fatal("third Start admitted past a full window")
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	hs = append(hs, <-started)
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeded window 2", p)
	}
}

// A cancelled context releases a Start blocked on a full window without
// starting the operation.
func TestStartCancelWhileBlocked(t *testing.T) {
	s := New[int](1)
	release := make(chan struct{})
	h, err := s.Start(context.Background(), func() (int, error) {
		<-release
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, err := s.Start(ctx, func() (int, error) { return 2, nil })
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Start returned %v, want context.Canceled", err)
	}

	close(release)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// One failing operation fails only its own handle; siblings and WaitAll
// report independently.
func TestPerOpIsolation(t *testing.T) {
	s := New[int](4)
	boom := errors.New("boom")
	bad, err := s.Start(context.Background(), func() (int, error) { return 0, boom })
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Start(context.Background(), func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(); !errors.Is(err, boom) {
		t.Fatalf("failed op error = %v, want boom", err)
	}
	if v, err := good.Wait(); v != 7 || err != nil {
		t.Fatalf("sibling op = (%d, %v), want (7, nil)", v, err)
	}
	if err := s.WaitAll(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("WaitAll = %v, want first error boom", err)
	}
}

// WaitAll reports the earliest-started failure even when a later-started
// operation failed first.
func TestWaitAllFirstErrorInStartOrder(t *testing.T) {
	s := New[int](4)
	early, late := errors.New("early"), errors.New("late")
	release := make(chan struct{})
	if _, err := s.Start(context.Background(), func() (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	first, err := s.Start(context.Background(), func() (int, error) {
		<-release
		return 0, early
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Start(context.Background(), func() (int, error) { return 0, late })
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Err(); !errors.Is(err, late) {
		t.Fatalf("later op error = %v, want late", err)
	}
	// Let the later op's failure be recorded before the earlier one fails.
	for s.InFlight() > 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := first.Err(); !errors.Is(err, early) {
		t.Fatalf("earlier op error = %v, want early", err)
	}
	if err := s.WaitAll(context.Background()); !errors.Is(err, early) {
		t.Fatalf("WaitAll = %v, want the earlier-started op's error", err)
	}
}

// The scheduler keeps no handle: once the caller has collected a result
// and dropped its handle, the result is garbage.
func TestCollectedHandleIsReleased(t *testing.T) {
	type result struct{ buf [1 << 16]byte }
	s := New[*result](2)
	h, err := s.Start(context.Background(), func() (*result, error) { return &result{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(res, func(*result) { close(freed) })
	res, h = nil, nil
	if err := s.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(s) // the scheduler itself stays reachable
			return
		case <-deadline:
			t.Fatal("a collected result is still reachable from its scheduler")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestWaitAllBlocksUntilDrained(t *testing.T) {
	s := New[int](8)
	var done atomic.Int32
	for i := 0; i < 6; i++ {
		_, err := s.Start(context.Background(), func() (int, error) {
			time.Sleep(20 * time.Millisecond)
			done.Add(1)
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 6 {
		t.Fatalf("WaitAll returned with %d/6 ops complete", n)
	}
}

func TestWaitAllCancel(t *testing.T) {
	s := New[int](1)
	release := make(chan struct{})
	h, err := s.Start(context.Background(), func() (int, error) {
		<-release
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WaitAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitAll under cancelled ctx = %v", err)
	}
	close(release)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// An operation started while WaitAll is blocked is waited on too, and
// its error is what WaitAll reports: the first operation completing does
// not end the wait while the second is still in flight.
func TestWaitAllWaitsForOpsStartedWhileBlocked(t *testing.T) {
	s := New[int](2)
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	hA, err := s.Start(context.Background(), func() (int, error) {
		<-releaseA
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- s.WaitAll(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let WaitAll park on the first op
	errB := errors.New("second op failed")
	if _, err := s.Start(context.Background(), func() (int, error) {
		<-releaseB
		return 0, errB
	}); err != nil {
		t.Fatal(err)
	}
	close(releaseA)
	hA.Wait()
	select {
	case err := <-waited:
		t.Fatalf("WaitAll returned %v with the second op still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseB)
	select {
	case err := <-waited:
		if err != errB {
			t.Fatalf("WaitAll = %v, want the second op's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAll still blocked after every op completed")
	}
}

func TestSchedulerClose(t *testing.T) {
	s := New[int](2)
	s.Close()
	if _, err := s.Start(context.Background(), func() (int, error) { return 0, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start on closed scheduler = %v, want ErrClosed", err)
	}
}

func TestCompletedHandle(t *testing.T) {
	h := Completed(99, nil)
	select {
	case <-h.Done():
	default:
		t.Fatal("Completed handle not done")
	}
	if v, err := h.Wait(); v != 99 || err != nil {
		t.Fatalf("Completed = (%d, %v)", v, err)
	}
}

// Satellite: N concurrent ops cancelled mid-flight under -race leak
// nothing (the package fence in TestMain verifies the drain; this test
// verifies every handle resolves to its cancellation error).
func TestConcurrentCancelNoLeak(t *testing.T) {
	const n = 16
	s := New[int](n)
	ctx, cancel := context.WithCancel(context.Background())
	var hs []*Handle[int]
	for i := 0; i < n; i++ {
		h, err := s.Start(ctx, func() (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Hour):
				return 0, nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	time.Sleep(20 * time.Millisecond) // let ops get in flight
	cancel()
	for i, h := range hs {
		if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("op %d error = %v, want context.Canceled", i, err)
		}
	}
	if err := s.WaitAll(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitAll = %v", err)
	}
}

func TestFairQueueFIFOWithinStream(t *testing.T) {
	q := NewFairQueue[int]()
	for i := 0; i < 10; i++ {
		q.Push(1, i)
	}
	q.Close()
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on drained closed queue reported ok")
	}
}

// Round-robin: a burst from one stream must not starve another — with
// streams A (many items) and B (one item), B's item is served within two
// pops.
func TestFairQueueRoundRobin(t *testing.T) {
	q := NewFairQueue[string]()
	for i := 0; i < 100; i++ {
		q.Push(0, fmt.Sprintf("a%d", i))
	}
	q.Push(1, "b0")
	first, _ := q.Pop()
	second, _ := q.Pop()
	if first != "b0" && second != "b0" {
		t.Fatalf("stream B starved: first two pops were %q, %q", first, second)
	}
	// Interleave check over a fresh queue with equal-length streams.
	q2 := NewFairQueue[string]()
	for i := 0; i < 3; i++ {
		q2.Push(7, fmt.Sprintf("x%d", i))
		q2.Push(9, fmt.Sprintf("y%d", i))
	}
	var got []string
	for i := 0; i < 6; i++ {
		v, ok := q2.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		got = append(got, v)
	}
	// Per-stream FIFO must hold regardless of interleaving.
	xi, yi := 0, 0
	for _, v := range got {
		switch v[0] {
		case 'x':
			if want := fmt.Sprintf("x%d", xi); v != want {
				t.Fatalf("stream x out of order: got %v", got)
			}
			xi++
		case 'y':
			if want := fmt.Sprintf("y%d", yi); v != want {
				t.Fatalf("stream y out of order: got %v", got)
			}
			yi++
		}
	}
}

// Pop blocks until Push; Close wakes all blocked poppers.
func TestFairQueueBlockingPopAndClose(t *testing.T) {
	q := NewFairQueue[int]()
	got := make(chan int)
	go func() {
		v, ok := q.Pop()
		if !ok {
			v = -1
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("Pop returned %d from an empty queue", v)
	case <-time.After(50 * time.Millisecond):
	}
	q.Push(3, 77)
	if v := <-got; v != 77 {
		t.Fatalf("Pop = %d, want 77", v)
	}

	// Close must release many parked poppers (regression for coalesced
	// wakeups on the cap-1 signal channel).
	const parked = 8
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.Pop(); ok {
				t.Error("Pop on closed empty queue reported ok")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	q.Close()
	wg.Wait()
}

// Hammer the queue from many producers and consumers under -race: every
// pushed item is popped exactly once and per-stream order holds.
func TestFairQueueConcurrentStress(t *testing.T) {
	q := NewFairQueue[[2]int]() // [stream, seq]
	const streams, perStream, consumers = 8, 200, 4
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				q.Push(uint32(s), [2]int{s, i})
			}
		}(s)
	}
	var mu sync.Mutex
	counts := make(map[[2]int]int)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				counts[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cwg.Wait()
	if len(counts) != streams*perStream {
		t.Fatalf("popped %d distinct items, want %d", len(counts), streams*perStream)
	}
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("item %v popped %d times", k, n)
		}
	}
}
