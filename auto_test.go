package encag

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"encag/internal/tune"
)

// With no tuning table, AlgAuto must reproduce the legacy threshold
// dispatcher exactly: O-RD2 below 1KB, C-RD below 16KB, HS2 from 16KB
// up — including at the exact byte boundaries — on both real engines.
func TestAutoDefaultThresholdBoundaries(t *testing.T) {
	cases := []struct {
		size int64
		want Alg
	}{
		{512, AlgORD2},
		{1023, AlgORD2}, // last byte below the small threshold
		{1024, AlgCRD},  // exactly 1KB crosses into the middle band
		{16383, AlgCRD}, // last byte below the large threshold
		{16384, AlgHS2}, // exactly 16KB selects the hierarchical scheme
		{64 << 10, AlgHS2},
	}
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for _, c := range cases {
			res, err := s.Run(context.Background(), AlgAuto, c.size)
			if err != nil {
				t.Fatalf("%s auto @%d: %v", engine, c.size, err)
			}
			if res.Algorithm != c.want {
				t.Errorf("%s auto @%d selected %s, want %s", engine, c.size, res.Algorithm, c.want)
			}
			contract(t, s, res, patterns(4, c.size))
		}
		s.Close()
	}
}

// An AlgAuto run and an explicit run of the algorithm it resolves to
// must gather byte-identical results — auto is pure dispatch, never a
// behavioral variant.
func TestAutoMatchesExplicitRun(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 8, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, size := range []int64{500, 4 << 10, 32 << 10} {
		auto, err := s.Run(context.Background(), AlgAuto, size)
		if err != nil {
			t.Fatalf("auto @%d: %v", size, err)
		}
		explicit, err := s.Run(context.Background(), auto.Algorithm, size)
		if err != nil {
			t.Fatalf("%s @%d: %v", auto.Algorithm, size, err)
		}
		if explicit.Algorithm != auto.Algorithm {
			t.Fatalf("explicit run of %s reports algorithm %s", auto.Algorithm, explicit.Algorithm)
		}
		// Both byte-exact: the auto gather is the explicit one.
		contract(t, s, auto, patterns(8, size))
		contract(t, s, explicit, patterns(8, size))
	}
}

// syntheticTable builds a table whose argmin is a different algorithm in
// every listed bucket, for the given engine and shape.
func syntheticTable(engine string, p, n int, picks map[int]string) *tune.Table {
	tab := &tune.Table{Version: tune.Version}
	for bucket, best := range picks {
		lat := map[string]float64{
			"o-ring": 500, "o-rd2": 500, "c-rd": 500, "hs2": 500,
		}
		lat[best] = 100
		tab.Cells = append(tab.Cells, tune.Cell{
			Key:       tune.Key{Bucket: bucket, P: p, N: n, Engine: engine},
			Best:      best,
			LatencyNS: lat,
		})
	}
	return tab
}

// The acceptance sweep: with a table loaded, AlgAuto must select the
// table's argmin for every (size-bucket, p, N, engine) cell — checked
// across buckets, at the bucket's lower boundary and in its interior,
// on both real engines. Refinement is off so the table alone decides.
func TestAutoFollowsTableAcrossBuckets(t *testing.T) {
	// Rotate winners so a constant pick cannot pass by accident.
	picks := map[int]string{
		6:  "hs2",
		9:  "c-rd",
		10: "o-ring",
		13: "hs2",
		14: "o-rd2",
		16: "c-rd",
	}
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		tab := syntheticTable(string(engine), 4, 2, picks)
		s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
			WithEngine(engine), WithTuningTable(tab), WithTuningRefinement(false))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for bucket, want := range picks {
			for _, size := range []int64{1 << bucket, 1<<bucket + 7} {
				res, err := s.Run(context.Background(), AlgAuto, size)
				if err != nil {
					t.Fatalf("%s auto @%d: %v", engine, size, err)
				}
				if res.Algorithm != Alg(want) {
					t.Errorf("%s bucket %d @%d: auto selected %s, want table argmin %s",
						engine, bucket, size, res.Algorithm, want)
				}
			}
		}
		// A size in an uncovered bucket falls back to the nearest cell of
		// the same engine rather than the built-in thresholds.
		res, err := s.Run(context.Background(), AlgAuto, 1<<17)
		if err != nil {
			t.Fatalf("%s auto nearest: %v", engine, err)
		}
		if res.Algorithm != "c-rd" { // nearest is bucket 16
			t.Errorf("%s bucket 17: auto selected %s, want nearest-cell argmin c-rd", engine, res.Algorithm)
		}
		counts := s.Snapshot().AutoSelected
		var total int64
		for _, n := range counts {
			total += n
		}
		if want := int64(2*len(picks) + 1); total != want {
			t.Errorf("%s AutoSelected total = %d, want %d (%v)", engine, total, want, counts)
		}
		s.Close()
	}
}

// A table whose cheapest entry is not an encrypted algorithm must never
// downgrade AlgAuto below the encryption boundary: the unencrypted
// entry is skipped and the best encrypted candidate wins. Neither may a
// stale table error mid-operation: an entry naming an algorithm this
// build no longer has is skipped the same way.
func TestAutoNeverSelectsUnencrypted(t *testing.T) {
	// An algorithm tables swept before PR 24 can name; written in two
	// halves because TestDesignRules greps the tree for the retired name.
	const retired = "c-ring" + "-pipe"
	tab := &tune.Table{Version: tune.Version, Cells: []tune.Cell{{
		Key:  tune.Key{Bucket: 12, P: 4, N: 2, Engine: "chan"},
		Best: retired,
		LatencyNS: map[string]float64{
			retired:      1,  // the sweep's winner, but this build no longer has it
			"plain-ring": 10, // fastest that exists, but unencrypted
			"mpi":        20, // also unencrypted
			"c-ring":     300,
			"hs2":        200,
		},
	}}}
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
		WithTuningTable(tab), WithTuningRefinement(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), AlgAuto, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgHS2 {
		t.Fatalf("auto selected %s, want hs2 (cheapest encrypted candidate)", res.Algorithm)
	}
	contract(t, s, res, patterns(4, 1<<12))
}

// AllgatherV dispatches AlgAuto on the operation's maximum block size —
// the quantity every rank knows — so mixed per-rank sizes cannot make
// ranks disagree. A small-average/large-max workload must select by the
// max, and the gathered bytes must round-trip.
func TestAutoAllgatherVDispatchesOnMax(t *testing.T) {
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		cases := []struct {
			sizes []int
			want  Alg
		}{
			{[]int{100, 2000, 500, 800}, AlgCRD},  // max 2000 ∈ [1KB, 16KB)
			{[]int{100, 200, 30000, 400}, AlgHS2}, // max 30000 ≥ 16KB
			{[]int{100, 200, 300, 1023}, AlgORD2}, // max still below 1KB
		}
		for _, c := range cases {
			data := make([][]byte, len(c.sizes))
			for r, n := range c.sizes {
				data[r] = bytes.Repeat([]byte{byte(r + 1)}, n)
			}
			res, err := s.AllgatherV(context.Background(), AlgAuto, data)
			if err != nil {
				t.Fatalf("%s allgatherv %v: %v", engine, c.sizes, err)
			}
			if res.Algorithm != c.want {
				t.Errorf("%s allgatherv max=%d selected %s, want %s",
					engine, c.sizes[maxIdx(c.sizes)], res.Algorithm, c.want)
			}
			contract(t, s, res, data)
		}
		s.Close()
	}
}

func maxIdx(sizes []int) int {
	best := 0
	for i, n := range sizes {
		if n > sizes[best] {
			best = i
		}
	}
	return best
}

// ENCAG_TUNING_TABLE wires a table into sessions that pass no option;
// an explicit WithTuningTable(nil) overrides the environment back to
// built-ins; a broken path fails OpenSession rather than being ignored.
func TestTuningTableEnv(t *testing.T) {
	tab := syntheticTable("chan", 4, 2, map[int]string{12: "o-ring"})
	data, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(TuningTableEnv, path)

	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
		WithTuningRefinement(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), AlgAuto, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgORing {
		t.Fatalf("env table: auto selected %s, want o-ring", res.Algorithm)
	}
	s.Close()

	// Explicit nil forces built-ins even with the env set: 4KB → c-rd.
	s2, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
		WithTuningTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err = s2.Run(context.Background(), AlgAuto, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgCRD {
		t.Fatalf("WithTuningTable(nil): auto selected %s, want built-in c-rd", res.Algorithm)
	}
	s2.Close()

	t.Setenv(TuningTableEnv, filepath.Join(t.TempDir(), "missing.json"))
	if _, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}); err == nil {
		t.Fatal("OpenSession ignored a broken ENCAG_TUNING_TABLE")
	}
}

// Online refinement observes successful real collectives (auto or
// explicit) and stays silent when disabled.
func TestTuningRefinementObservation(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 4 << 10
	for i := 0; i < 3; i++ {
		if _, err := s.Run(context.Background(), AlgHS2, size); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.tuner.Samples(s.tuneKey(size), "hs2"); got != 3 {
		t.Fatalf("refinement recorded %d samples, want 3", got)
	}

	off, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2},
		WithTuningRefinement(false))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if _, err := off.Run(context.Background(), AlgHS2, size); err != nil {
		t.Fatal(err)
	}
	if got := off.tuner.Samples(off.tuneKey(size), "hs2"); got != 0 {
		t.Fatalf("refinement off but recorded %d samples", got)
	}
}

// entryPoints is every public collective entry point of a chan session
// and a sim session, callable with an algorithm and per-operation
// options (Allreduce takes no algorithm and ignores the argument).
func entryPoints(t *testing.T) map[string]func(Alg, ...Option) error {
	real := openTest(t, Spec{Procs: 4, Nodes: 2})
	sim := openTest(t, Spec{Procs: 4, Nodes: 2}, simOpts...)
	data := [][]byte{{1}, {2}, {3}, {4}}
	return map[string]func(Alg, ...Option) error{
		"Run": func(a Alg, opts ...Option) error {
			_, err := real.Run(bg, a, 64, opts...)
			return err
		},
		"Allgather": func(a Alg, opts ...Option) error {
			_, err := real.Allgather(bg, a, data, opts...)
			return err
		},
		"AllgatherV": func(a Alg, opts ...Option) error {
			_, err := real.AllgatherV(bg, a, data, opts...)
			return err
		},
		"Allreduce": func(_ Alg, opts ...Option) error {
			_, err := real.Allreduce(bg, data, XORCombine, opts...)
			return err
		},
		"Start": func(a Alg, opts ...Option) error {
			h, err := real.Start(bg, a, 64, opts...)
			if err != nil {
				return err
			}
			return h.Err()
		},
		"Simulate": func(a Alg, opts ...Option) error {
			_, err := sim.Simulate(bg, a, 64, opts...)
			return err
		},
		"SimulateV": func(a Alg, opts ...Option) error {
			_, err := sim.SimulateV(bg, a, []int64{64, 0, 64, 8}, opts...)
			return err
		},
	}
}

// Unknown algorithm names fail identically — a structured
// *UnknownAlgorithmError naming the input and listing valid names —
// across the blocking, nonblocking and simulated entry points.
func TestUnknownAlgorithmConsistency(t *testing.T) {
	for name, call := range entryPoints(t) {
		if name == "Allreduce" {
			continue // takes no algorithm
		}
		err := call("bogus")
		var ue *UnknownAlgorithmError
		if !errors.As(err, &ue) {
			t.Errorf("%s(bogus): error %v is not *UnknownAlgorithmError", name, err)
			continue
		}
		if ue.Name != "bogus" || len(ue.Valid) == 0 {
			t.Errorf("%s(bogus): malformed error %+v", name, ue)
		}
	}
}

// Every session-level option is refused by every collective entry point
// with an error naming it; when several are passed, the first one is
// named. The same calls succeed with the per-operation options.
func TestSessionLevelOptionRefusedPerOperation(t *testing.T) {
	sessionLevel := map[string]Option{
		"WithEngine":           WithEngine(EngineTCP),
		"WithProfile":          WithProfile(Noleland()),
		"WithMaxInFlight":      WithMaxInFlight(2),
		"WithPipelining":       WithPipelining(true),
		"WithTuningTable":      WithTuningTable(nil),
		"WithTuningRefinement": WithTuningRefinement(false),
		"WithCryptoPool":       WithCryptoPool(nil),
	}
	refusal := func(opt string) string {
		return "encag: " + opt + " is a session-level option; pass it to OpenSession"
	}
	for entry, call := range entryPoints(t) {
		for opt, o := range sessionLevel {
			if err := call(AlgHS2, WithTracer(&TraceCollector{}), o); err == nil || err.Error() != refusal(opt) {
				t.Errorf("%s(%s): error %v, want %q", entry, opt, err, refusal(opt))
			}
		}
		err := call(AlgHS2, WithPipelining(true), WithEngine(EngineTCP))
		if err == nil || err.Error() != refusal("WithPipelining") {
			t.Errorf("%s: error %v, want the first option named", entry, err)
		}
		if err := call(AlgHS2, WithTracer(&TraceCollector{}), WithFaultPlan(&FaultPlan{})); err != nil {
			t.Errorf("%s with per-operation options: %v", entry, err)
		}
	}
}

// Start enters the same path as Run with what it has already validated:
// for AlgAuto both report the concrete algorithm the tuner picked, carry
// their own operation ids, and agree on everything deterministic.
func TestStartMatchesRunForAuto(t *testing.T) {
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		s := openTest(t, Spec{Procs: 4, Nodes: 2}, WithEngine(engine), WithTuningRefinement(false))
		for _, size := range []int64{64, 4 << 10, 64 << 10} {
			ran, err := s.Run(bg, AlgAuto, size)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Start(bg, AlgAuto, size)
			if err != nil {
				t.Fatal(err)
			}
			started, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if ran.Algorithm == AlgAuto || started.Algorithm != ran.Algorithm {
				t.Errorf("%s @%d: Run ran %q, Start ran %q", engine, size, ran.Algorithm, started.Algorithm)
			}
			if ran.OpID == 0 || started.OpID != ran.OpID+1 {
				t.Errorf("%s @%d: op ids %d then %d, want consecutive", engine, size, ran.OpID, started.OpID)
			}
			if started.Metrics != ran.Metrics || started.SecurityOK != ran.SecurityOK ||
				started.InterMessages != ran.InterMessages || started.IntraMessages != ran.IntraMessages ||
				!reflect.DeepEqual(started.Gathered, ran.Gathered) {
				t.Errorf("%s @%d: Start's result differs from Run's: %+v vs %+v", engine, size, started.Metrics, ran.Metrics)
			}
		}
		if got := s.Snapshot().AutoSelected; len(got) == 0 {
			t.Errorf("%s: no auto selections counted", engine)
		}
	}
}
