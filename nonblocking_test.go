package encag_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"encag"
	"encag/internal/block"
	"encag/internal/fault"
)

// sameGather fails the test unless two gathered tensors are byte-equal.
func sameGather(t *testing.T, label string, got, want [][][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got), len(want))
	}
	for r := range want {
		for o := range want[r] {
			if !bytes.Equal(got[r][o], want[r][o]) {
				t.Fatalf("%s: rank %d origin %d differs from serialized run", label, r, o)
			}
		}
	}
}

// The headline acceptance: four concurrent all-gathers with distinct
// algorithms multiplexed over ONE TCP session must each produce exactly
// the bytes the same collectives produce when run one at a time.
func TestStartConcurrentDistinctAlgorithmsTCP(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2}
	algos := encag.PaperAlgorithms()[:4]
	const msgSize = 512

	s, err := encag.OpenSession(context.Background(), spec,
		encag.WithEngine(encag.EngineTCP), encag.WithMaxInFlight(len(algos)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.MaxInFlight(); got != len(algos) {
		t.Fatalf("MaxInFlight() = %d, want %d", got, len(algos))
	}

	// Serialized baseline over the same mesh.
	want := make(map[encag.Alg][][][]byte, len(algos))
	for _, algo := range algos {
		res, err := s.Run(context.Background(), algo, msgSize)
		if err != nil {
			t.Fatalf("serialized %s: %v", algo, err)
		}
		want[algo] = res.Gathered
	}

	// All four in flight at once, interleaving on the shared links.
	handles := make(map[encag.Alg]*encag.Handle, len(algos))
	for _, algo := range algos {
		h, err := s.Start(context.Background(), algo, msgSize)
		if err != nil {
			t.Fatalf("Start %s: %v", algo, err)
		}
		handles[algo] = h
	}
	for _, algo := range algos {
		res, err := handles[algo].Wait()
		if err != nil {
			t.Fatalf("concurrent %s: %v", algo, err)
		}
		if !res.SecurityOK {
			t.Fatalf("concurrent %s: security violations %v", algo, res.Violations)
		}
		sameGather(t, "concurrent "+string(algo), res.Gathered, want[algo])
	}
	if err := s.WaitAll(context.Background()); err != nil {
		t.Fatalf("WaitAll after drain: %v", err)
	}
	if !s.WireClean(msgSize) {
		t.Fatal("plaintext pattern observed on the wire during concurrent ops")
	}
}

// Ciphertext buffers are recycled from one operation to the next. Two
// hundred o-ring all-gathers on 3 nodes, four in flight at a time and
// each forwarding ciphertext around the ring, must every one stay
// byte-exact after all the later operations have reused their buffers,
// and no plaintext may reach the wire, on both engines.
func TestRecycledCiphertextStress(t *testing.T) {
	const ops, window, msgSize = 200, 4, 3000
	spec := encag.Spec{Procs: 6, Nodes: 3}
	want := make([][]byte, spec.Procs)
	for r := range want {
		want[r] = block.FillPattern(r, msgSize)
	}
	for _, engine := range []encag.Engine{encag.EngineTCP, encag.EngineChan} {
		s, err := encag.OpenSession(context.Background(), spec,
			encag.WithEngine(engine), encag.WithMaxInFlight(window))
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*encag.Handle, 0, ops)
		for i := 0; i < ops; i++ {
			h, err := s.Start(context.Background(), encag.AlgORing, msgSize)
			if err != nil {
				t.Fatalf("%s: Start %d: %v", engine, i, err)
			}
			handles = append(handles, h)
		}
		if err := s.WaitAll(context.Background()); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for i, h := range handles {
			res, err := h.Wait()
			if err != nil {
				t.Fatalf("%s: op %d: %v", engine, i, err)
			}
			for r, view := range res.Gathered {
				for o, got := range view {
					if !bytes.Equal(got, want[o]) {
						t.Fatalf("%s: op %d: rank %d's block of origin %d changed after its buffers were recycled", engine, i, r, o)
					}
				}
			}
		}
		if !s.WireClean(msgSize) {
			t.Fatalf("%s: plaintext pattern observed on the wire", engine)
		}
		s.Close()
	}
}

// A per-operation fault plan fires only on the operation that carries
// it: a sibling running the same algorithm over the same links at the
// same time stays byte-exact, and an op-level failure leaves the
// session and the sibling intact.
func TestStartPerOpFaultIsolationTCP(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second}
	s, err := encag.OpenSession(context.Background(), spec, encag.WithEngine(encag.EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	baseline, err := s.Run(context.Background(), "naive", 512)
	if err != nil {
		t.Fatal(err)
	}

	// Drop EVERY 1->0 frame of the faulted op. Naive is all-to-all, so
	// the pair is guaranteed to carry traffic: the faulted op must starve
	// out with a structured recv error. If the plan leaked to the clean
	// sibling — same algorithm, same pairs — the sibling would starve too.
	plan := &encag.FaultPlan{Rules: []encag.FaultRule{
		{Src: 1, Dst: 0, Frame: -1, Kind: encag.FaultDrop, Times: -1},
	}}
	faulted, err := s.Start(context.Background(), "naive", 512, encag.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.Start(context.Background(), "naive", 512)
	if err != nil {
		t.Fatal(err)
	}

	res, err := clean.Wait()
	if err != nil {
		t.Fatalf("clean sibling caught the sibling's faults: %v", err)
	}
	sameGather(t, "clean sibling", res.Gathered, baseline.Gathered)

	ferr := faulted.Err()
	var re *encag.RankError
	if ferr == nil || !errors.As(ferr, &re) {
		t.Fatalf("faulted op err = %v, want *RankError", ferr)
	}
	// The root cause is the injection itself: either the sender exhausts
	// its retries on the dropped frame or the receiver starves.
	var fe *fault.Error
	if !errors.As(ferr, &fe) && re.Op != "recv" && re.Op != "timeout" {
		t.Fatalf("faulted op root cause = %q (%v), want injected-fault exhaustion or recv starvation", re.Op, ferr)
	}

	// Op-level failure: the session survives and stays byte-exact.
	if err := s.Err(); err != nil {
		t.Fatalf("session poisoned by an op-scoped injected fault: %v", err)
	}
	after, err := s.Run(context.Background(), "naive", 512)
	if err != nil {
		t.Fatalf("session unusable after op-scoped fault: %v", err)
	}
	sameGather(t, "post-fault run", after.Gathered, baseline.Gathered)
}

// Cancelling one in-flight operation fails only its own handle: the
// sibling operations complete byte-exact and the session keeps working.
func TestStartCancelOneInFlightTCP(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2}
	s, err := encag.OpenSession(context.Background(), spec, encag.WithEngine(encag.EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	baseline, err := s.Run(context.Background(), "hs1", 1024)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	// The doomed op's first frame stalls, so it is still in flight when the
	// cancel comes however the goroutines are scheduled; unstalled, a
	// 64 KiB hs2 can finish before the two sibling Starts have returned.
	stall := &fault.Plan{Rules: []fault.Rule{{Src: -1, Dst: -1, Frame: 0, Kind: fault.Stall, Delay: 300 * time.Millisecond}}}
	doomed, err := s.Start(ctx, "hs2", 1<<16, encag.WithFaultPlan(stall))
	if err != nil {
		t.Fatal(err)
	}
	var siblings []*encag.Handle
	for i := 0; i < 2; i++ {
		h, err := s.Start(context.Background(), "hs1", 1024)
		if err != nil {
			t.Fatal(err)
		}
		siblings = append(siblings, h)
	}
	cancel()

	if err := doomed.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled op err = %v, want context.Canceled", err)
	}
	for i, h := range siblings {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("sibling %d failed after unrelated cancel: %v", i, err)
		}
		sameGather(t, "sibling", res.Gathered, baseline.Gathered)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("session poisoned by a cancel: %v", err)
	}
	after, err := s.Run(context.Background(), "hs1", 1024)
	if err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
	sameGather(t, "post-cancel run", after.Gathered, baseline.Gathered)
}

// Cancelling a batch of concurrent operations mid-flight and closing
// the session must drain every scheduler, rank and reader goroutine —
// nothing may leak into the caller's process.
func TestStartCancelDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, eng := range []encag.Engine{encag.EngineChan, encag.EngineTCP} {
		s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 4, Nodes: 2},
			encag.WithEngine(eng), encag.WithMaxInFlight(8))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var handles []*encag.Handle
		for i := 0; i < 6; i++ {
			h, err := s.Start(ctx, "c-ring", 1<<16)
			if err != nil {
				t.Fatalf("%s: Start %d: %v", eng, i, err)
			}
			handles = append(handles, h)
		}
		cancel()
		for _, h := range handles {
			h.Err() // outcome irrelevant; the handles must all resolve
		}
		s.Close()
	}
	// Crypto pool workers idle-exit on their own schedule; poll.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// With a window of one, a second Start queues behind the first instead
// of overlapping it, and both land byte-exact.
func TestStartBackpressureWindowOfOne(t *testing.T) {
	s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 4, Nodes: 2},
		encag.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.MaxInFlight(); got != 1 {
		t.Fatalf("MaxInFlight() = %d, want 1", got)
	}
	baseline, err := s.Run(context.Background(), "hs2", 256)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*encag.Handle
	for i := 0; i < 3; i++ {
		h, err := s.Start(context.Background(), "hs2", 256)
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("queued op %d: %v", i, err)
		}
		sameGather(t, "queued op", res.Gathered, baseline.Gathered)
	}
}

// EngineSim has no real-time concurrency: Start completes synchronously
// in virtual time and hands back an already-resolved handle.
func TestStartSimSynchronous(t *testing.T) {
	s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 64, Nodes: 4},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Start(context.Background(), "hs1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	res, herr, ok := h.TryWait()
	if !ok {
		t.Fatal("sim Start returned an unresolved handle")
	}
	if herr != nil {
		t.Fatal(herr)
	}
	if res.Elapsed <= 0 || !res.SecurityOK || res.Gathered != nil {
		t.Fatalf("sim handle result = %+v, want modelled latency, SecurityOK, nil Gathered", res)
	}
	sim, err := s.Simulate(context.Background(), "hs1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != sim.Latency || res.Metrics != sim.Metrics {
		t.Fatalf("sim handle diverges from Simulate: %v/%v vs %v/%v",
			res.Elapsed, res.Metrics, sim.Latency, sim.Metrics)
	}
	if s.InFlight() != 0 {
		t.Fatalf("sim InFlight() = %d, want 0", s.InFlight())
	}
	// An unknown algorithm fails Start itself, structured, on every
	// engine — the fail-fast contract of the typed API.
	if _, err := s.Start(context.Background(), "no-such-algo", 1<<16); err == nil {
		t.Fatal("Start accepted an unknown algorithm")
	} else {
		var ue *encag.UnknownAlgorithmError
		if !errors.As(err, &ue) || ue.Name != "no-such-algo" || len(ue.Valid) == 0 {
			t.Fatalf("Start error = %v, want *UnknownAlgorithmError listing valid names", err)
		}
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("sim handle's Done channel is open")
	}
}

// A sim Start runs the same per-send plaintext check as the real
// engines: the unencrypted counterpart of an algorithm is reported
// insecure, with its violations and message counts, and the encrypted
// one clean over the same messages.
func TestStartSimReportsPlaintextAcrossNodes(t *testing.T) {
	s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 8, Nodes: 2},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := func(alg encag.Alg) *encag.RunResult {
		t.Helper()
		h, err := s.Start(context.Background(), alg, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, enc := start(encag.PlainOf(encag.AlgHS2)), start(encag.AlgHS2)
	if plain.SecurityOK || len(plain.Violations) == 0 || !strings.Contains(plain.Violations[0], "across nodes") {
		t.Fatalf("plain-hs2 on the sim: SecurityOK=%v violations %q, want insecure with violations",
			plain.SecurityOK, plain.Violations)
	}
	if !enc.SecurityOK || len(enc.Violations) != 0 {
		t.Fatalf("hs2 on the sim: SecurityOK=%v violations %q", enc.SecurityOK, enc.Violations)
	}
	// HS2's node-local exchanges go through shared memory, not sends.
	if enc.InterMessages == 0 || enc.InterMessages != plain.InterMessages || enc.IntraMessages != plain.IntraMessages {
		t.Fatalf("message counts: hs2 %d/%d, plain-hs2 %d/%d (inter/intra), want equal with inter-node sends",
			enc.InterMessages, enc.IntraMessages, plain.InterMessages, plain.IntraMessages)
	}
}

// WithMaxInFlight is a session-level knob: per-operation use is
// rejected with a clear error on both Run and Start.
func TestWithMaxInFlightIsSessionLevel(t *testing.T) {
	s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), "hs1", 64, encag.WithMaxInFlight(2)); err == nil {
		t.Fatal("per-op WithMaxInFlight accepted by Run")
	}
	if _, err := s.Start(context.Background(), "hs1", 64, encag.WithMaxInFlight(2)); err == nil {
		t.Fatal("per-op WithMaxInFlight accepted by Start")
	}
	if _, err := s.Start(context.Background(), "hs1", 64, encag.WithEngine(encag.EngineTCP)); err == nil {
		t.Fatal("per-op WithEngine accepted by Start")
	}
}
