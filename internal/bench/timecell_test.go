package bench

import (
	"context"
	"testing"

	"encag"
)

func TestTimeCell(t *testing.T) {
	ctx := context.Background()
	spec := encag.Spec{Procs: 4, Nodes: 2}
	const m, iters = 1 << 10, 3
	s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineChan), encag.WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// (a) Serial o-ring: one sample per op, the Table II metrics, no
	// plaintext.
	tm, err := TimeCell(ctx, s, encag.AlgORing, m, 1, iters, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := encag.Predict(encag.AlgORing, spec.Procs, spec.Nodes, m)
	if err != nil {
		t.Fatal(err)
	}
	// sc carries 28 bytes of GCM framing per ciphertext on top of the
	// closed form.
	got := encag.BoundSet(tm.Metrics)
	framing := got.Sc - pred.Sc
	got.Sc = pred.Sc
	if len(tm.Samples) != iters || tm.Violations != 0 || got != pred || framing < 0 || framing%28 != 0 {
		t.Errorf("o-ring: %d samples, %d violations, metrics %+v; want %d, 0, %+v", len(tm.Samples), tm.Violations, tm.Metrics, iters, pred)
	}
	if tm.Min() <= 0 || tm.Min() > tm.Median() || tm.Median() > tm.Max() || tm.Wall < tm.Max() {
		t.Errorf("o-ring: min %v median %v max %v wall %v out of order", tm.Min(), tm.Median(), tm.Max(), tm.Wall)
	}

	// (b) Plaintext baselines are counted, not failed; (c) auto is
	// judged on its pick, which is encrypted.
	for _, alg := range []encag.Alg{encag.AlgMPI, encag.AlgPlainRing, encag.AlgAuto} {
		tm, err := TimeCell(ctx, s, alg, m, 1, iters, 1)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if plain := alg != encag.AlgAuto; plain != (tm.Violations > 0) {
			t.Errorf("%s: %d plaintext violations", alg, tm.Violations)
		}
	}

	// (d) Windowed: every op issued through Start, two in flight.
	tm, err = TimeCell(ctx, s, encag.AlgORing, m, 1, iters, 2)
	if err != nil || len(tm.Samples) != iters || tm.Wall <= 0 {
		t.Errorf("window 2: %d samples, wall %v, err %v", len(tm.Samples), tm.Wall, err)
	}

	// (e) A cancelled context ends the cell, serial or windowed.
	done, cancel := context.WithCancel(ctx)
	cancel()
	for _, window := range []int{1, 2} {
		tm, err := TimeCell(done, s, encag.AlgORing, m, 0, iters, window)
		if err == nil || len(tm.Samples) >= iters {
			t.Errorf("cancelled, window %d: %d samples, err %v", window, len(tm.Samples), err)
		}
	}

	// (f) Plaintext on an encrypted algorithm fails the cell; on a
	// plaintext baseline it does not.
	if err := verdict(&encag.RunResult{Algorithm: encag.AlgORD2}); err == nil {
		t.Error("o-rd2 result with plaintext across nodes passed")
	}
	if err := verdict(&encag.RunResult{Algorithm: encag.AlgMPI, Violations: []string{"sent in the clear"}}); err != nil {
		t.Errorf("mpi result failed: %v", err)
	}
}
