package encag

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
)

var bg = context.Background()

// simOpts opens an EngineSim session on the paper's local cluster.
var simOpts = []Option{WithEngine(EngineSim), WithProfile(Noleland())}

// openTest opens a session that lives as long as the test does.
func openTest(t testing.TB, spec Spec, opts ...Option) *Session {
	t.Helper()
	s, err := OpenSession(bg, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// contract fails t unless res, an all-gather on s to which origin o
// contributed want[o], kept the paper's contract: every rank gathered
// every block byte-exact, no inter-node send carried plaintext and, on
// TCP across nodes, the wire capture saw traffic and holds no block of
// 16 bytes or more. It reports with t.Errorf, so a test's worker
// goroutines may call it. Goroutines drained after Close are
// testkit.Drained's to check.
func contract(t testing.TB, s *Session, res *RunResult, want [][]byte) {
	t.Helper()
	if len(res.Gathered) != len(want) {
		t.Errorf("%s: %d ranks gathered, want %d", res.Algorithm, len(res.Gathered), len(want))
	}
	for r, view := range res.Gathered {
		if !slices.EqualFunc(view, want, bytes.Equal) {
			t.Errorf("%s: rank %d did not gather every block byte-exact", res.Algorithm, r)
		}
	}
	if !res.SecurityOK {
		t.Errorf("%s: plaintext crossed nodes: %v", res.Algorithm, res.Violations)
	}
	if w := s.Wire(); w != nil && s.Spec().Nodes > 1 {
		if w.Bytes == 0 {
			t.Errorf("%s: the wire capture saw no inter-node traffic", res.Algorithm)
		}
		for o, b := range want {
			// A 64-byte needle scans at memory speed, and the whole block
			// can only be where its first 64 bytes are.
			if len(b) >= 16 && w.Observed(b[:min(len(b), 64)]) && w.Observed(b) {
				t.Errorf("%s: origin %d's block is on the wire", res.Algorithm, o)
			}
		}
	}
}

// patterns is what the p origins of a Run of m bytes contribute: their
// test patterns.
func patterns(p int, m int64) [][]byte {
	want := make([][]byte, p)
	for o := range want {
		want[o] = block.FillPattern(o, m)
	}
	return want
}

func TestRunQuickstartPath(t *testing.T) {
	spec := Spec{Procs: 8, Nodes: 2}
	s := openTest(t, spec)
	res, err := s.Run(bg, "hs2", 64)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, patterns(8, 64))
}

func TestAllgatherUserData(t *testing.T) {
	spec := Spec{Procs: 4, Nodes: 2, Mapping: "cyclic"}
	data := [][]byte{
		[]byte("alpha-secret-000"),
		[]byte("beta-secret-1111"),
		[]byte("gamma-secret-22x"),
		[]byte("delta-secret-333"),
	}
	s := openTest(t, spec)
	res, err := s.Allgather(bg, "c-ring", data)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, data)
}

func TestSimulatePaperScale(t *testing.T) {
	s := openTest(t, Spec{Procs: 128, Nodes: 8}, simOpts...)
	naive, err := s.Simulate(bg, "naive", 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	hs2, err := s.Simulate(bg, "hs2", 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if hs2.Latency >= naive.Latency {
		t.Fatalf("hs2 (%v) should beat naive (%v) at 16KB — the paper's headline result", hs2.Latency, naive.Latency)
	}
	if hs2.Metrics.Sd >= naive.Metrics.Sd {
		t.Fatalf("hs2 sd=%d should be far below naive sd=%d", hs2.Metrics.Sd, naive.Metrics.Sd)
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := openTest(t, Spec{Procs: 4, Nodes: 2}, simOpts...).Simulate(bg, "nope", 64); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := OpenSession(bg, Spec{Procs: 4, Nodes: 2, Mapping: "weird"}, simOpts...); err == nil {
		t.Fatal("unknown mapping accepted")
	}
	if _, err := OpenSession(bg, Spec{Procs: 5, Nodes: 2}, simOpts...); err == nil {
		t.Fatal("unbalanced spec accepted")
	}
}

func TestAlgorithmsListComplete(t *testing.T) {
	names := Algorithms()
	for _, want := range []Alg{AlgNaive, AlgORing, AlgORD, AlgORD2, AlgCRing, AlgCRD, AlgHS1, AlgHS2, AlgMPI, "plain-hs1"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("algorithm %q missing from Algorithms()", want)
		}
	}
	// Every listed algorithm must actually resolve and run.
	s := openTest(t, Spec{Procs: 8, Nodes: 2}, simOpts...)
	for _, n := range names {
		if _, err := s.Simulate(bg, n, 64); err != nil {
			t.Errorf("listed algorithm %s failed: %v", n, err)
		}
	}
}

func TestPlainCounterpartsFree(t *testing.T) {
	s := openTest(t, Spec{Procs: 16, Nodes: 4}, simOpts...)
	enc, err := s.Simulate(bg, "c-ring", 4096)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Simulate(bg, "plain-c-ring", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.Re != 0 || plain.Metrics.Rd != 0 {
		t.Fatalf("plain counterpart still does crypto: %+v", plain.Metrics)
	}
	if plain.Latency >= enc.Latency {
		t.Fatal("plain counterpart should be at least as fast as the encrypted algorithm")
	}
}

func TestPredictAndBoundsExposed(t *testing.T) {
	lb := LowerBounds(128, 8, 1000)
	if lb.Sd != 7000 {
		t.Fatalf("lower bound sd = %d", lb.Sd)
	}
	pred, err := Predict("hs2", 128, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Sd != lb.Sd {
		t.Fatal("hs2 must meet the sd lower bound")
	}
	if _, err := Predict("hs2", 100, 10, 1); err == nil ||
		!strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("expected power-of-two error, got %v", err)
	}
}

// Every listed algorithm must also execute correctly on the real engine
// (the list test above exercises the simulator only).
func TestAlgorithmsListRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := Spec{Procs: 8, Nodes: 2}
	s := openTest(t, spec)
	for _, name := range Algorithms() {
		res, err := s.Run(bg, name, 32)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for r := 0; r < spec.Procs; r++ {
			if len(res.Gathered[r]) != spec.Procs {
				t.Errorf("%s: rank %d gathered %d blocks", name, r, len(res.Gathered[r]))
			}
		}
	}
}

// kindTimes folds a trace into per-kind total seconds.
func kindTimes(tr *TraceCollector) map[TraceKind]float64 {
	out := make(map[TraceKind]float64)
	for _, ev := range tr.Events {
		out[ev.Kind] += ev.End - ev.Start
	}
	return out
}

// A traced Run must produce a wall-clock timeline whose encrypt/decrypt
// byte totals agree with the six-metric summary and whose spans lie
// within the elapsed window.
func TestRunTracedTimeline(t *testing.T) {
	tr := &TraceCollector{}
	s := openTest(t, Spec{Procs: 8, Nodes: 2}, WithTracer(tr))
	res, err := s.Run(bg, "hs2", 4096)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, patterns(8, 4096))
	// A sender traces its send after delivering it, possibly after the
	// receiver finished: Close drains the senders before the events are read.
	s.Close()
	if len(tr.Events) == 0 {
		t.Fatal("no trace events from a traced real run")
	}
	var encBytes, decBytes int64
	seen := make(map[TraceKind]bool)
	horizon := res.Elapsed.Seconds()
	for _, ev := range tr.Events {
		seen[ev.Kind] = true
		if ev.Start < 0 || ev.End < ev.Start {
			t.Fatalf("bad interval: %+v", ev)
		}
		// Elapsed is measured from the same epoch; allow scheduler slack.
		if ev.End > horizon+0.5 {
			t.Fatalf("event beyond elapsed window: %+v vs %g", ev, horizon)
		}
		switch ev.Kind {
		case cluster.TraceEncrypt:
			encBytes += ev.Bytes
		case cluster.TraceDecrypt:
			decBytes += ev.Bytes
		}
	}
	for _, k := range []TraceKind{cluster.TraceSend, cluster.TraceRecv, cluster.TraceEncrypt, cluster.TraceDecrypt} {
		if !seen[k] {
			t.Errorf("no %v events in traced real run", k)
		}
	}
	// hs2 on 8 ranks over 2 nodes encrypts on every rank: the aggregate
	// traced bytes must be at least the critical rank's.
	if encBytes < res.Metrics.Se {
		t.Errorf("traced encrypt bytes %d below critical-path se=%d", encBytes, res.Metrics.Se)
	}
	if decBytes < res.Metrics.Sd {
		t.Errorf("traced decrypt bytes %d below critical-path sd=%d", decBytes, res.Metrics.Sd)
	}
}

// Untraced runs must stay trace-free and still succeed after the engine
// hook refactor.
func TestRunOverTCPTraced(t *testing.T) {
	tr := &TraceCollector{}
	s := openTest(t, Spec{Procs: 8, Nodes: 2}, WithEngine(EngineTCP), WithTracer(tr))
	res, err := s.Run(bg, "hs2", 1024)
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, res, patterns(8, 1024))
	if s.Wire().Truncated {
		t.Fatal("small capture unexpectedly truncated")
	}
	s.Close() // drains the senders, which trace each send after its write returns
	if len(tr.Events) == 0 {
		t.Fatal("no trace events from a traced TCP run")
	}
	sendBytes := kindBytes(tr, cluster.TraceSend)
	if sendBytes == 0 {
		t.Fatal("no send bytes traced over TCP")
	}
}

func kindBytes(tr *TraceCollector, k TraceKind) int64 {
	var n int64
	for _, ev := range tr.Events {
		if ev.Kind == k {
			n += ev.Bytes
		}
	}
	return n
}

// A traced Simulate must agree with an untraced one and return the
// virtual-time timeline.
func TestSimulateTraced(t *testing.T) {
	s := openTest(t, Spec{Procs: 16, Nodes: 4}, simOpts...)
	plainRes, err := s.Simulate(bg, "c-rd", 8192)
	if err != nil {
		t.Fatal(err)
	}
	tr := &TraceCollector{}
	res, err := s.Simulate(bg, "c-rd", 8192, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != plainRes.Latency || res.Metrics != plainRes.Metrics {
		t.Fatalf("traced sim differs from plain sim: %v/%v vs %v/%v",
			res.Latency, res.Metrics, plainRes.Latency, plainRes.Metrics)
	}
	times := kindTimes(tr)
	if times[cluster.TraceSend] <= 0 || times[cluster.TraceDecrypt] <= 0 {
		t.Fatalf("sim timeline missing phases: %v", times)
	}
}

// Simulation results are bit-for-bit deterministic across calls — the
// property that makes the tables reproducible.
func TestSimulateDeterministic(t *testing.T) {
	spec := Spec{Procs: 32, Nodes: 8, Mapping: "cyclic"}
	a, err := openTest(t, spec, simOpts...).Simulate(bg, "c-ring", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// A fresh session each time: determinism must not lean on state
		// a session carries between simulations.
		b, err := openTest(t, spec, simOpts...).Simulate(bg, "c-ring", 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		if a.Latency != b.Latency || a.Metrics != b.Metrics {
			t.Fatalf("run %d differs: %v/%v vs %v/%v", i, a.Latency, a.Metrics, b.Latency, b.Metrics)
		}
	}
}

// The six facade metrics surface the same values the internal engines
// count; spot-check one closed form through the public API.
func TestFacadeMetricsMatchPredict(t *testing.T) {
	spec := Spec{Procs: 64, Nodes: 8}
	const m = 2048
	s := openTest(t, spec, simOpts...)
	for _, alg := range PaperAlgorithms() {
		pred, err := Predict(alg, spec.Procs, spec.Nodes, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Simulate(bg, alg, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Re != pred.Re || res.Metrics.Se != pred.Se ||
			res.Metrics.Rd != pred.Rd || res.Metrics.Sd != pred.Sd {
			t.Errorf("%s: facade metrics %v != prediction %v", alg, res.Metrics, pred)
		}
	}
}
