package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/cost"
	"encag/internal/fault"
)

// stallRank0 blocks rank 0 on a receive that is never satisfied; every
// other rank completes immediately. Used to exercise cancellation.
func stallRank0(p *Proc, mine block.Message) block.Message {
	if p.Rank() == 0 {
		p.Recv(1) // rank 1 never sends
	}
	return mine
}

func TestSessionReuseTCP(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lastWire int64
	for i := 0; i < 4; i++ {
		res, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 256})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 256), res.Results, true); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// The sniffer is session-lifetime: volume must grow monotonically.
		if got := s.Sniffer().Total(); got <= lastWire {
			t.Fatalf("iteration %d: wire total %d did not grow past %d", i, got, lastWire)
		} else {
			lastWire = got
		}
	}
}

func TestSessionReuseChan(t *testing.T) {
	spec := Spec{P: 8, N: 2, Mapping: CyclicMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		res, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 128})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 128), res.Results, true); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// Cancelling a context mid-collective must abort a stalled TCP run
// promptly and surface a structured cancel error — and, because
// cancellation is an operation-level failure, the mesh must survive: the
// very next collective on the same session completes byte-exact.
func TestSessionContextCancelTCP(t *testing.T) {
	// An hour-long recv deadline: only cancellation can end the stall.
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: time.Hour}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Collective(ctx, Op{Algo: stallRank0, MsgSize: 64})
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Op != "cancel" {
		t.Fatalf("err = %v, want *RankError with Op cancel", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	// Cancellation is scoped to the operation: the mesh survives and the
	// next collective must complete byte-exact on the same listeners,
	// links and sequence gates.
	if s.Err() != nil {
		t.Fatalf("session broken by a cancelled op: %v", s.Err())
	}
	res, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 64})
	if err != nil {
		t.Fatalf("post-cancel collective failed: %v", err)
	}
	if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 64), res.Results, true); err != nil {
		t.Fatalf("post-cancel gather corrupted: %v", err)
	}
}

func TestSessionContextCancelChan(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping, RecvTimeout: time.Hour}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = s.Collective(ctx, Op{Algo: stallRank0, MsgSize: 32})
	var re *RankError
	if !errors.As(err, &re) || re.Op != "cancel" {
		t.Fatalf("err = %v, want *RankError with Op cancel", err)
	}
}

// A context that is already cancelled fails fast without touching the
// engine or breaking the session.
func TestSessionPreCancelledContext(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Collective(ctx, Op{Algo: ringPlain, MsgSize: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Fail-fast rejection must not poison the session.
	if _, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 16}); err != nil {
		t.Fatalf("session unusable after pre-cancelled ctx: %v", err)
	}
}

// A fault plan scoped to one iteration must not leak into earlier or
// later collectives on the same mesh: frame counters restart per
// operation and the epoch gate discards stragglers.
func TestSessionFaultPlanOnIterationK(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan := fault.Transient(7, 4, 6)
	for i := 0; i < 5; i++ {
		op := Op{Algo: ringPlain, MsgSize: 512}
		if i == 2 {
			op.Plan = plan // chaos on iteration 2 only
		}
		res, err := s.Collective(context.Background(), op)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 512), res.Results, true); err != nil {
			t.Fatalf("iteration %d gather corrupted: %v", i, err)
		}
	}
}

// A random fault plan either completes or fails its own operation with
// a structured error. Failure no longer poisons the session by default:
// only wire-level unrecoverability (ErrMeshDown — corrupted frame
// stream, sequence-gate desync, organic transport death) breaks it. So
// after a failed operation the session must be in exactly one of two
// states: broken with ErrMeshDown behind ErrSessionBroken, or healthy
// enough that a clean follow-up collective completes byte-exact.
func TestSessionRandomPlanBreaksOrCompletes(t *testing.T) {
	// A short recv deadline keeps the starved-peer seeds fast.
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping, RecvTimeout: 2 * time.Second}
	for seed := int64(1); seed <= 3; seed++ {
		s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 256,
			Plan: fault.Random(seed, 4, 8)})
		if err != nil {
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("seed %d: unstructured failure %v", seed, err)
			}
		}
		res, ferr := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 256})
		switch {
		case ferr == nil:
			if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 256), res.Results, true); err != nil {
				t.Fatalf("seed %d: follow-up gather corrupted: %v", seed, err)
			}
		case errors.Is(ferr, ErrSessionBroken):
			// The plan corrupted the wire beyond recovery; the session must
			// say so via Err() and keep refusing work.
			if s.Err() == nil {
				t.Fatalf("seed %d: ErrSessionBroken without Err()", seed)
			}
			if _, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 256}); !errors.Is(err, ErrSessionBroken) {
				t.Fatalf("seed %d: broken session accepted work: %v", seed, err)
			}
		default:
			t.Fatalf("seed %d: follow-up neither completed nor refused: %v", seed, ferr)
		}
		s.Close()
	}
}

func TestSessionRekey(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Sealer()
	if _, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 64}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	if s.Sealer() == before {
		t.Fatal("Rekey did not install a fresh sealer")
	}
	res, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 64), res.Results, true); err != nil {
		t.Fatal(err)
	}
}

func TestSessionClosedAndEngineMismatch(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sim(context.Background(), Op{Algo: ringPlain, MsgSize: 8}); err == nil {
		t.Fatal("Sim on a chan session must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := s.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 8}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
	if err := s.Rekey(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Rekey err = %v, want ErrSessionClosed", err)
	}

	sim, err := OpenSession(spec, SessionConfig{Engine: EngineSim, Profile: cost.Noleland()})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Collective(context.Background(), Op{Algo: ringPlain, MsgSize: 8}); err == nil {
		t.Fatal("Collective on a sim session must fail")
	}
	res, err := sim.Sim(context.Background(), Op{Algo: ringPlain, MsgSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGatherV(spec, block.UniformSizes(spec.P, 8), res.Results, false); err != nil {
		t.Fatal(err)
	}
}

// parkedTracer blocks every Record until released, signalling the first.
type parkedTracer struct {
	entered, release chan struct{}
	once             sync.Once
}

func (pt *parkedTracer) Record(TraceEvent) {
	pt.once.Do(func() { close(pt.entered) })
	<-pt.release
}

// A Sim holds the session lock for its state checks only: one parked in
// its tracer blocks neither Snapshot nor a second Sim on the session.
func TestSimDoesNotBlockSession(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	s, err := OpenSession(spec, SessionConfig{Engine: EngineSim, Profile: cost.Noleland()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pt := &parkedTracer{entered: make(chan struct{}), release: make(chan struct{})}
	first := make(chan error, 1)
	go func() {
		_, err := s.Sim(context.Background(), Op{Algo: ringPlain, MsgSize: 64, Tracer: pt})
		first <- err
	}()
	<-pt.entered
	others := make(chan error, 1)
	go func() {
		s.Snapshot()
		_, err := s.Sim(context.Background(), Op{Algo: ringPlain, MsgSize: 64})
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatalf("second Sim: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(pt.release) // unpark, so the deferred Close cannot hang
		t.Fatal("Snapshot or a second Sim blocked behind a Sim parked in its tracer")
	}
	close(pt.release)
	if err := <-first; err != nil {
		t.Fatalf("parked Sim: %v", err)
	}
}
