package encag

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// Session reuse must be byte-exact on every iteration for every paper
// algorithm on both real engines: the persistent mesh, sealer and rank
// pool may not leak state between collectives.
func TestSessionReuseAllAlgorithms(t *testing.T) {
	spec := Spec{Procs: 8, Nodes: 2}
	const msgSize = 96
	const iters = 3
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		s, err := OpenSession(context.Background(), spec, WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for _, algo := range PaperAlgorithms() {
			for i := 0; i < iters; i++ {
				res, err := s.Run(context.Background(), algo, msgSize)
				if err != nil {
					t.Fatalf("%s/%s iteration %d: %v", engine, algo, i, err)
				}
				contract(t, s, res, patterns(spec.Procs, msgSize))
			}
		}
		if w := s.Wire(); (w != nil) != (engine == EngineTCP) {
			t.Fatalf("%s session wire report = %+v", engine, w)
		}
		s.Close()
	}
}

// One sim session answers many what-if questions without revalidating.
func TestSessionSimulateReuse(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 64, Nodes: 4},
		WithEngine(EngineSim), WithProfile(Noleland()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, algo := range PaperAlgorithms() {
		res, err := s.Simulate(context.Background(), algo, 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("%s: latency %v", algo, res.Latency)
		}
	}
	// A session that has run eight simulations answers like a fresh one.
	want, err := openTest(t, s.Spec(), simOpts...).Simulate(context.Background(), "hs1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Simulate(context.Background(), "hs1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Latency != want.Latency || got.Metrics != want.Metrics {
		t.Fatalf("reused sim session diverges from a fresh one: %+v vs %+v", got, want)
	}
}

// Sim sessions require a profile; real engines reject sim-only calls.
func TestSessionEngineOptionErrors(t *testing.T) {
	if _, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(EngineSim)); err == nil {
		t.Fatal("sim session without WithProfile accepted")
	}
	if _, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine("quantum")); err == nil {
		t.Fatal("unknown engine accepted")
	}
	// The profile is validated once, at open, not on every Simulate.
	bad := Noleland()
	bad.EncBW = 0
	if _, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
		WithEngine(EngineSim), WithProfile(bad)); err == nil || !strings.Contains(err.Error(), "EncBW") {
		t.Fatalf("sim session with a zero EncBW opened: err = %v", err)
	}
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Session-level options are rejected per operation.
	if _, err := s.Run(context.Background(), "hs1", 64, WithEngine(EngineTCP)); err == nil {
		t.Fatal("per-op WithEngine accepted")
	}
	if _, err := s.Run(context.Background(), "hs1", 64, WithProfile(Noleland())); err == nil {
		t.Fatal("per-op WithProfile accepted")
	}
	if _, err := s.Simulate(context.Background(), "hs1", 64); err == nil {
		t.Fatal("Simulate on a chan session accepted")
	}
	if _, err := s.Run(context.Background(), "no-such-algo", 64); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// User data and gatherv flow through sessions exactly as through the
// deprecated wrappers.
func TestSessionUserDataAndV(t *testing.T) {
	spec := Spec{Procs: 4, Nodes: 2}
	s, err := OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := [][]byte{[]byte("alpha---"), []byte("bravo---"), []byte("charlie-"), []byte("delta---")}
	res, err := s.Allgather(context.Background(), "hs2", data)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, data)
	if _, err := s.Allgather(context.Background(), "hs2", data[:2]); err == nil {
		t.Fatal("contribution count mismatch accepted")
	}

	vdata := [][]byte{[]byte("a"), {}, []byte("ccc"), []byte("dd")}
	vres, err := s.AllgatherV(context.Background(), "c-ring", vdata)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, vres, vdata)

	sum := make([]byte, 8)
	red := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	for r := range red {
		for i := range red[r] {
			red[r][i] = byte(r + i)
			sum[i] ^= byte(r + i)
		}
	}
	rres, err := s.Allreduce(context.Background(), red, XORCombine)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rres.Result, sum) {
		t.Fatalf("allreduce = %x, want %x", rres.Result, sum)
	}
}

// A pre-cancelled context fails fast with a structured error and leaves
// the session usable.
func TestSessionPreCancelled(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, "hs1", 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := s.Run(context.Background(), "hs1", 64); err != nil {
		t.Fatalf("session unusable after fast-fail: %v", err)
	}
}

// Rekey rotates the key between collectives without disturbing results.
func TestSessionRekeyPublic(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Run(context.Background(), "hs1", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background(), "hs1", 64)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, a, patterns(4, 64))
	contract(t, s, b, patterns(4, 64))
}

// A per-operation transient fault plan on iteration k must recover
// byte-exactly and leave the surrounding clean iterations untouched.
func TestSessionFaultPlanIteration(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		var opts []Option
		if i == 2 {
			opts = append(opts, WithFaultPlan(TransientFaultPlan(11, 4, 5)))
		}
		res, err := s.Run(context.Background(), "hs1", 256, opts...)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		contract(t, s, res, patterns(4, 256))
	}
}
