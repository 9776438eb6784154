package seal

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Close must return only after every worker goroutine has exited, and a
// closed pool must keep serving Run calls by degrading them to serial
// execution on the caller.
func TestPoolCloseDrainsWorkers(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	p.Run(64, func(int) { ran.Add(1) })
	if ran.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", ran.Load())
	}
	p.Close()
	if got := p.Stats().Workers; got != 0 {
		t.Fatalf("workers alive after Close: %d", got)
	}
	// Serial degradation: Run still completes, dispatching nothing and
	// spawning no workers.
	ran.Store(0)
	dispatched := p.Stats().Dispatched
	p.Run(32, func(int) { ran.Add(1) })
	if ran.Load() != 32 {
		t.Fatalf("closed pool ran %d tasks, want 32", ran.Load())
	}
	if got := p.Stats(); got.Workers != 0 || got.Dispatched != dispatched {
		t.Fatalf("closed pool spawned %d workers and dispatched %d tasks", got.Workers, got.Dispatched-dispatched)
	}
}

// Concurrent and repeated Close calls must all return (after the drain)
// without panicking.
func TestPoolCloseIdempotentConcurrent(t *testing.T) {
	p := NewPool(2)
	p.Run(16, func(int) {})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	if got := p.Stats().Workers; got != 0 {
		t.Fatalf("workers alive after concurrent Close: %d", got)
	}
}

// Closing a pool while Run calls are in flight must neither panic nor
// lose work: every index still executes (the callers absorb what the
// draining workers no longer take).
func TestPoolCloseDuringRun(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				p.Run(16, func(int) {
					ran.Add(1)
					time.Sleep(100 * time.Microsecond)
				})
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	wg.Wait()
	if want := int64(8 * 10 * 16); ran.Load() != want {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want)
	}
	if got := p.Stats().Workers; got != 0 {
		t.Fatalf("workers alive after Close+Run drain: %d", got)
	}
}

// The multi-tenant invariant: sealers from many tenants share one
// injected pool; tearing one tenant down mid-flight (its sealer simply
// stops being used, with seal tasks still running) must not leak workers
// into, or panic, the shared pool — surviving tenants keep sealing and
// opening correctly, and the pool still drains to zero on Close.
func TestSharedPoolSurvivesReapedSealer(t *testing.T) {
	shared := NewPool(3)
	const segSize = 512
	newTenantSealer := func() *Sealer {
		s, err := NewRandomSealer()
		if err != nil {
			t.Fatal(err)
		}
		s.SetSegmentSize(segSize)
		s.SetPool(shared)
		return s
	}
	if got := newTenantSealer().Pool(); got != shared {
		t.Fatalf("SetPool not honored: got %p, want %p", got, shared)
	}

	victim := newTenantSealer()
	survivor := newTenantSealer()
	pt := randBytes(t, 4*segSize+13)
	aad := []byte("tenant header")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// The victim tenant seals hard on the shared pool...
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := victim.SealSegmented([][]byte{pt}, aad); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// ...and is reaped mid-flight: the host stops routing work to it.
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The survivor's crypto is unaffected.
	blob, _, err := survivor.SealSegmented([][]byte{pt}, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := survivor.OpenSegmented(blob, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("survivor round trip corrupted after sibling reap")
	}
	if st := shared.Stats(); st.Workers > st.Size {
		t.Fatalf("worker leak: %d alive, cap %d", st.Workers, st.Size)
	}
	shared.Close()
	if got := shared.Stats().Workers; got != 0 {
		t.Fatalf("workers alive after Close: %d", got)
	}
}
