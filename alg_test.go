package encag

import (
	"bytes"
	"context"
	"testing"

	"encag/internal/block"
	"encag/internal/tune"
)

// Resolving a name is a lookup in the table built at init: neither the
// implementation nor the auto-candidate check allocates, for any
// selectable name.
func TestAlgorithmResolutionAllocatesNothing(t *testing.T) {
	for _, a := range Algorithms() {
		if a != AlgAuto {
			if n := testing.AllocsPerRun(100, func() { _ = lookup(a) }); n != 0 {
				t.Errorf("lookup(%s) allocates %.0f objects, want 0", a, n)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = autoCandidate(string(a)) }); n != 0 {
			t.Errorf("autoCandidate(%s) allocates %.0f objects, want 0", a, n)
		}
	}
}

// The built-in thresholds only ever pick encrypted entries of the table.
func TestDefaultPickIsEncrypted(t *testing.T) {
	for _, m := range []int64{1, 1 << 10, 16 << 10} {
		name := tune.DefaultPick(m)
		if e, ok := algTable[Alg(name)]; !ok || !e.encrypted {
			t.Errorf("DefaultPick(%d) = %q: in table %v, encrypted %v", m, name, ok, e.encrypted)
		}
	}
}

// Every name maps to one shared implementation, so two operations of
// one algorithm in flight on one session run the same closure at once:
// each must still gather every origin's bytes exactly, for every paper
// algorithm.
func TestConcurrentStartsShareAlgorithm(t *testing.T) {
	const msgSize = 1500
	spec := Spec{Procs: 8, Nodes: 2}
	algs := PaperAlgorithms()
	s, err := OpenSession(context.Background(), spec, WithMaxInFlight(2*len(algs)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	handles := make([]*Handle, 0, 2*len(algs))
	for _, a := range algs {
		for i := 0; i < 2; i++ {
			h, err := s.Start(context.Background(), a, msgSize)
			if err != nil {
				t.Fatalf("Start %s: %v", a, err)
			}
			handles = append(handles, h)
		}
	}
	for i, h := range handles {
		a := algs[i/2]
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("%s #%d: %v", a, i%2, err)
		}
		if !res.SecurityOK || res.Algorithm != a {
			t.Fatalf("%s #%d: SecurityOK %v, ran %s", a, i%2, res.SecurityOK, res.Algorithm)
		}
		for r, got := range res.Gathered {
			for o, b := range got {
				if !bytes.Equal(b, block.FillPattern(o, msgSize)) {
					t.Fatalf("%s #%d: rank %d holds wrong bytes for origin %d", a, i%2, r, o)
				}
			}
		}
	}
}
