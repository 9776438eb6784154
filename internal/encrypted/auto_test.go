package encrypted_test

import (
	"context"
	"testing"

	"encag"
)

// AlgAuto on a session with no tuning table must dispatch to the
// expected scheme per size band and never be far from the best
// hand-picked algorithm.
func TestAutoDispatch(t *testing.T) {
	ctx := context.Background()
	sim, err := encag.OpenSession(ctx, encag.Spec{Procs: 64, Nodes: 8},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()), encag.WithTuningTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for _, tc := range []struct {
		m    int64
		like encag.Alg
	}{
		{64, encag.AlgORD2},
		{4 << 10, encag.AlgCRD},
		{256 << 10, encag.AlgHS2},
	} {
		ra, err := sim.Simulate(ctx, encag.AlgAuto, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sim.Simulate(ctx, tc.like, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Algorithm != tc.like || ra.Metrics != rr.Metrics {
			t.Errorf("auto @%d ran %s, dispatched differently from %s: %+v vs %+v",
				tc.m, ra.Algorithm, tc.like, ra.Metrics, rr.Metrics)
		}
		// Auto within 1.3x of the best paper algorithm at this size.
		best := ra.Latency
		for _, cand := range encag.PaperAlgorithms() {
			r, err := sim.Simulate(ctx, cand, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if r.Latency < best {
				best = r.Latency
			}
		}
		if ra.Latency.Seconds() > best.Seconds()*1.3 {
			t.Errorf("auto @%d is %.2fx the best algorithm", tc.m, ra.Latency.Seconds()/best.Seconds())
		}
	}
	// Correct and secure in the real engine too: a Run under an (empty)
	// fault plan verifies every gathered byte against its origin.
	real, err := encag.OpenSession(ctx, encag.Spec{Procs: 8, Nodes: 4, Mapping: "cyclic"}, encag.WithTuningTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	res, err := real.Run(ctx, encag.AlgAuto, 48, encag.WithFaultPlan(&encag.FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SecurityOK {
		t.Fatalf("auto leaked plaintext: %v", res.Violations)
	}
}
