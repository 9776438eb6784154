package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
	"unsafe"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/wire"
)

// drainCipherBufs empties the process-wide free list, so a test can count
// exactly what comes back to it. Tests that use it must not run in
// parallel with others that seal or receive ciphertext.
func drainCipherBufs() {
	cipherBufs.mu.Lock()
	cipherBufs.free, cipherBufs.idle = nil, 0
	cipherBufs.mu.Unlock()
}

// overlapsIdle reports whether b shares memory with a buffer the free
// list holds.
func overlapsIdle(b []byte) bool {
	if cap(b) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	hi := lo + uintptr(len(b))
	cipherBufs.mu.Lock()
	defer cipherBufs.mu.Unlock()
	for _, l := range cipherBufs.free {
		for _, f := range l {
			flo := uintptr(unsafe.Pointer(unsafe.SliceData(f)))
			if lo < flo+uintptr(cap(f)) && flo < hi {
				return true
			}
		}
	}
	return false
}

// scribbleIdle overwrites every idle buffer, as a later operation drawing
// it would.
func scribbleIdle() {
	cipherBufs.mu.Lock()
	defer cipherBufs.mu.Unlock()
	for _, l := range cipherBufs.free {
		for _, f := range l {
			f = f[:cap(f)]
			for i := range f {
				f[i] = 0xA5
			}
		}
	}
}

// Capacities are rounded up to the 4 KiB quantum, a returned buffer is
// handed out again, and under any mix of concurrent gets and puts the
// idle bytes never pass the cap.
func TestBufPoolQuantumAndCap(t *testing.T) {
	var p bufPool
	for _, n := range []int{1, bufQuantum - 1, bufQuantum, bufQuantum + 1, 256<<10 + 40} {
		b := p.get(n)
		if len(b) != n || cap(b)%bufQuantum != 0 || cap(b)-n >= bufQuantum {
			t.Fatalf("get(%d): len %d cap %d, want len %d and cap rounded up to %d", n, len(b), cap(b), n, bufQuantum)
		}
	}
	b := p.get(5000)
	p.put(b)
	if again := p.get(6000); unsafe.SliceData(again) != unsafe.SliceData(b) {
		t.Fatal("a returned buffer of the right class was not reused")
	}
	if got := p.idleBytes(); got != 0 {
		t.Fatalf("idle %d bytes after the only free buffer was taken, want 0", got)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 400; i++ {
				held = append(held, p.get((w*i*7919)%(600<<10)+1))
				if i%3 == 0 {
					for _, h := range held {
						p.put(h)
					}
					held = held[:0]
				}
				if idle := p.idleBytes(); idle > bufIdleCap {
					t.Errorf("idle %d bytes, cap %d", idle, bufIdleCap)
					return
				}
			}
		}()
	}
	wg.Wait()
	if idle := p.idleBytes(); idle > bufIdleCap || idle == 0 {
		t.Fatalf("idle %d bytes after the hammer, want in (0, %d]", idle, bufIdleCap)
	}
}

// A free list filled to its cap with sizes no longer asked for still
// keeps the size in use: returning it drops idle buffers of other sizes,
// so the next get of that size reuses it instead of making one. The
// process-wide list sees every size its sessions ever sealed, so without
// this one burst of other sizes made every later buffer fresh.
func TestBufPoolMakesRoomForTheSizeInUse(t *testing.T) {
	var p bufPool
	for p.idleBytes()+8*bufQuantum <= bufIdleCap {
		p.put(make([]byte, 0, 8*bufQuantum))
	}
	hot := p.get(17*bufQuantum - 1)
	p.put(hot)
	if again := p.get(17*bufQuantum - 1); unsafe.SliceData(again) != unsafe.SliceData(hot) {
		t.Fatal("a buffer of the size in use was dropped from a list full of other sizes")
	}
	if idle := p.idleBytes(); idle > bufIdleCap-17*bufQuantum {
		t.Fatalf("idle %d bytes with a %d-byte buffer out, cap %d", idle, 17*bufQuantum, bufIdleCap)
	}
}

// sealThen is an algorithm in which every rank seals its block and then
// does what fail says with it — the op fails, or waits for a message that
// never comes — without a frame ever leaving a rank, so no straggler can
// put a buffer back behind the op's back.
func sealThen(fail bool) Algorithm {
	return func(p *Proc, mine block.Message) block.Message {
		p.Encrypt(mine.Chunks...)
		if fail && p.Rank() == 0 {
			panic("injected failure after sealing")
		}
		p.Recv((p.Rank() + 1) % p.P())
		return mine
	}
}

// A failed, cancelled or timed-out operation gives none of its ciphertext
// back: the free list is exactly as idle after it as before. A successful
// one gives its buffers back, on the slot that ran the unsuccessful
// ones. The timed-out op times out on the session's receive deadline.
func TestUnsuccessfulOpReturnsNoBuffers(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping, RecvTimeout: 300 * time.Millisecond}
	for _, engine := range opEngines {
		s := openRecycling(t, spec, engine)
		drainCipherBufs()
		cases := []struct {
			name        string
			cancelAfter time.Duration // 0: never
			alg         Algorithm
		}{
			{"failed", 0, sealThen(true)},
			{"cancelled", 50 * time.Millisecond, sealThen(false)},
			{"timed out", 0, sealThen(false)},
		}
		for _, c := range cases {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if c.cancelAfter > 0 {
				ctx, cancel = context.WithTimeout(ctx, c.cancelAfter)
			}
			_, err := s.Collective(ctx, Op{Algo: c.alg, MsgSize: 5000})
			cancel()
			if err == nil {
				t.Fatalf("%v: %s op succeeded", engine, c.name)
			}
			if idle := cipherBufs.idleBytes(); idle != 0 {
				t.Fatalf("%v: %s op returned %d bytes of ciphertext to the free list", engine, c.name, idle)
			}
		}
		if _, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: 5000}); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		s.Close() // the send loops have released every job
		if cipherBufs.idleBytes() == 0 {
			t.Fatalf("%v: a successful op returned no ciphertext to the free list", engine)
		}
	}
}

// openRecycling opens a session closed when the test ends. A test that
// counts free bytes closes it before counting: the last send job of a
// successful op may release its buffers after Collective has returned.
func openRecycling(t *testing.T, spec Spec, engine EngineKind) *Session {
	t.Helper()
	s, err := OpenSession(spec, SessionConfig{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// A send the send loop has not finished keeps its op's ciphertext out of
// the free list after the op itself has succeeded: the buffers come back
// only once the send is done. A planned stall holds the send on a memory
// pair; the injector's observer reports when the send loop reaches it.
func TestPendingSendHoldsCiphertext(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openRecycling(t, spec, EngineChan)
	const stall = time.Second
	inj := fault.NewInjector(&fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 1, Frame: 0, Kind: fault.Stall, Delay: stall},
	}})
	sending := make(chan struct{}, 1)
	inj.SetObserver(func(fault.Kind) { sending <- struct{}{} })
	o := s.slots.takeOp(s.tr, 1, inj, time.Second)
	defer s.tr.reg.deregister(1)
	drainCipherBufs()
	blob := o.alloc(5000)
	o.isend(&Proc{rank: 0, spec: spec}, 1, block.Message{Chunks: []block.Chunk{{Enc: true, Payload: blob}}}, nil, false)
	<-sending
	held := time.Now()
	o.bufs.finish(true)
	if idle := cipherBufs.idleBytes(); idle != 0 && time.Since(held) < stall {
		t.Fatalf("%d bytes back in the free list while a send still reads them", idle)
	}
	for deadline := time.Now().Add(5 * time.Second); cipherBufs.idleBytes() != 2*bufQuantum; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("free list holds %d bytes after the send, want %d", cipherBufs.idleBytes(), 2*bufQuantum)
		}
	}
}

// The gathered result never points into recycled memory: once the
// session has released every buffer, no result byte overlaps a free
// buffer, and overwriting every free buffer leaves each result
// byte-exact.
func TestGatherNeverAliasesRecycledBuffers(t *testing.T) {
	spec := Spec{P: 6, N: 3, Mapping: BlockMapping}
	const m = 3000
	for _, engine := range opEngines {
		s := openRecycling(t, spec, engine)
		var results [][]block.Message
		for i := 0; i < 20; i++ {
			res, err := s.Collective(context.Background(), Op{Algo: encRing, MsgSize: m})
			if err != nil {
				t.Fatalf("%v op %d: %v", engine, i, err)
			}
			results = append(results, res.Results)
		}
		s.Close()
		for i, res := range results {
			for r, msg := range res {
				for _, c := range msg.Chunks {
					if overlapsIdle(c.Payload) {
						t.Fatalf("%v op %d: rank %d's result shares memory with a free ciphertext buffer", engine, i, r)
					}
				}
			}
		}
		scribbleIdle()
		for i, res := range results {
			if err := ValidateGather(spec, m, res, true); err != nil {
				t.Fatalf("%v op %d: result changed when free buffers were overwritten: %v", engine, i, err)
			}
		}
	}
}

// A frame nobody will read gives its ciphertext back at once: a
// straggler of a retired operation, and a duplicate the sequence gate
// drops.
func TestStragglerAndDuplicateCiphertextReturned(t *testing.T) {
	m := newRawMesh(t, Spec{P: 2, N: 2, Mapping: BlockMapping}, 1)
	// Sequence number 0 twice: a straggler, then a duplicate. Their
	// payloads take buffers of different classes (8 and 12 KiB), so the
	// duplicate cannot reuse the straggler's.
	var frames [][]byte
	for _, n := range []int{5000, 10000} {
		enc := block.Message{Chunks: []block.Chunk{{Enc: true, Blocks: []block.Block{{Origin: 1, Len: int64(n - 28)}}, Payload: make([]byte, n)}}}
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, 1, 99, 0, enc); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame.Bytes())
	}
	drainCipherBufs()
	dialRaw(t, m, 1, frames...)
	const want = (2 + 3) * bufQuantum
	deadline := time.Now().Add(5 * time.Second)
	for cipherBufs.idleBytes() != want {
		if time.Now().After(deadline) {
			t.Fatalf("free list holds %d bytes after %d stragglers and %d duplicates, want %d",
				cipherBufs.idleBytes(), m.lm.stragglers.Value(), m.lm.dedupDrops.Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.lm.stragglers.Value() != 1 || m.lm.dedupDrops.Value() != 1 {
		t.Fatalf("%d stragglers and %d duplicates, want one of each", m.lm.stragglers.Value(), m.lm.dedupDrops.Value())
	}
}
