package encrypted

import (
	"testing"

	"encag/internal/cluster"
	"encag/internal/cost"
)

// The pipelined variants must be byte-identical in results and cost
// *counters* to their plain counterparts — only the timing changes.
func TestPipelinedMetricsMatchBase(t *testing.T) {
	spec := cluster.Spec{P: 16, N: 8, Mapping: cluster.BlockMapping}
	const m = 32 << 10
	base, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: CRing(), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: CRingPipelined(), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if base.Critical != pipe.Critical {
		t.Fatalf("pipelining changed the cost metrics: %+v vs %+v", base.Critical, pipe.Critical)
	}
	if err := cluster.ValidateGather(spec, m, pipe.Results, false); err != nil {
		t.Fatal(err)
	}
}

// With one rank per node (the C-Ring step-1 shape), pipelined O-Ring
// overlaps the N-1 own-use decryptions with transfers, so it must beat
// the serial tail of plain O-Ring for transfer-dominated sizes.
func TestPipelinedFasterWhenDecryptionOverlaps(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 8, Mapping: cluster.BlockMapping}
	const m = 512 << 10
	base, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: asWorld(ORing), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: asWorld(ORingPipelined), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Latency >= base.Latency {
		t.Fatalf("pipelined O-Ring (%.3g s) not faster than plain (%.3g s)", pipe.Latency, base.Latency)
	}
	// The win is bounded by the total decryption time.
	critDec := 0.0
	for _, met := range base.PerRank {
		if v := float64(met.DecBytes); v > critDec {
			critDec = v
		}
	}
	if base.Latency-pipe.Latency > critDec/cost.Noleland().DecBW+1e-3 {
		t.Fatalf("pipelining saved more time than the total decryption cost: %.3g vs %.3g",
			base.Latency-pipe.Latency, critDec/cost.Noleland().DecBW)
	}
}

// The pipelined variants run correctly with real crypto on every mapping.
func TestPipelinedCorrectReal(t *testing.T) {
	for _, spec := range []cluster.Spec{
		{P: 8, N: 4, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.CyclicMapping},
		{P: 12, N: 3, Mapping: cluster.BlockMapping},
		{P: 8, N: 8, Mapping: cluster.BlockMapping},
	} {
		for _, name := range []string{"o-ring-pipe", "c-ring-pipe"} {
			alg, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: alg, MsgSize: 64})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if err := cluster.ValidateGather(spec, 64, res.Results, true); err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if !res.Audit.Clean() {
				t.Fatalf("%s on %v: %v", name, spec, res.Audit.Violations)
			}
		}
	}
}
