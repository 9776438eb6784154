package collective

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/cost"
)

var allAlgs = map[string]Allgather{
	"ring":        Ring,
	"ring-ro":     RankOrderedRing,
	"rd":          RD,
	"bruck":       Bruck,
	"hier":        Hierarchical,
	"mvapich":     MVAPICH(0),
	"mvapich-min": MVAPICH(1), // always ring
	"neighbor":    NeighborExchange,
}

func specs() []cluster.Spec {
	return []cluster.Spec{
		{P: 1, N: 1, Mapping: cluster.BlockMapping},
		{P: 2, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.CyclicMapping},
		{P: 12, N: 3, Mapping: cluster.BlockMapping},  // non-power-of-two p
		{P: 12, N: 3, Mapping: cluster.CyclicMapping}, // non-power-of-two p
		{P: 16, N: 4, Mapping: cluster.BlockMapping},
		{P: 16, N: 4, Mapping: cluster.CyclicMapping},
		{P: 21, N: 7, Mapping: cluster.BlockMapping}, // odd everything
		{P: 16, N: 4, Mapping: cluster.CustomMapping,
			Custom: []int{3, 1, 2, 0, 0, 2, 1, 3, 1, 3, 0, 2, 2, 0, 3, 1}},
	}
}

func TestAllAlgorithmsCorrectReal(t *testing.T) {
	for _, spec := range specs() {
		for name, alg := range allAlgs {
			res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: AsAlgorithm(alg), MsgSize: 48})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if err := cluster.ValidateGather(spec, 48, res.Results, true); err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
		}
	}
}

func TestAllAlgorithmsCorrectSim(t *testing.T) {
	for _, spec := range specs() {
		for name, alg := range allAlgs {
			res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(alg), MsgSize: 4096})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if err := cluster.ValidateGather(spec, 4096, res.Results, false); err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if spec.P > 1 && res.Latency <= 0 {
				t.Fatalf("%s on %v: non-positive latency", name, spec)
			}
		}
	}
}

func TestRingRoundsAndBytes(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping}
	const m = 256
	res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(Ring), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical.Rc != spec.P-1 {
		t.Errorf("ring rc = %d, want %d", res.Critical.Rc, spec.P-1)
	}
	if res.Critical.Sc != int64(spec.P-1)*m {
		t.Errorf("ring sc = %d, want %d", res.Critical.Sc, (spec.P-1)*m)
	}
}

func TestRDRounds(t *testing.T) {
	// Power of two: exactly lg(p) rounds.
	spec := cluster.Spec{P: 16, N: 4, Mapping: cluster.BlockMapping}
	res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(RD), MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical.Rc != 4 {
		t.Errorf("rd pof2 rc = %d, want 4", res.Critical.Rc)
	}
	if res.Critical.Sc != 15*64 {
		t.Errorf("rd pof2 sc = %d, want %d", res.Critical.Sc, 15*64)
	}
	// Non power of two: bounded by 2*lg(p).
	spec = cluster.Spec{P: 12, N: 3, Mapping: cluster.BlockMapping}
	res, err = cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(RD), MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * bits.Len(uint(spec.P))
	if res.Critical.Rc > bound {
		t.Errorf("rd non-pof2 rc = %d, exceeds 2*lg(p)=%d", res.Critical.Rc, bound)
	}
}

func TestBruckRounds(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 12, 16} {
		spec := cluster.Spec{P: p, N: 1, Mapping: cluster.BlockMapping}
		res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(Bruck), MsgSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Ceil(math.Log2(float64(p))))
		if res.Critical.Rc != want {
			t.Errorf("bruck p=%d rc = %d, want ceil(lg p)=%d", p, res.Critical.Rc, want)
		}
	}
}

func TestHierarchicalLeaderRounds(t *testing.T) {
	// Leaders do gather(lg l) + RD(lg N) + bcast send steps; the critical
	// rank (leader) must stay within lg(l)+lg(N)+lg(l) rounds for powers
	// of two.
	spec := cluster.Spec{P: 16, N: 4, Mapping: cluster.BlockMapping}
	res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(Hierarchical), MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical.Rc > 6 {
		t.Errorf("hierarchical rc = %d, want <= 6", res.Critical.Rc)
	}
}

func TestRankOrderedRingCrossesOncePerNodePair(t *testing.T) {
	// Under cyclic mapping, the natural ring crosses nodes on every hop
	// while the rank-ordered ring crosses only N times per sweep. Compare
	// inter-node bytes.
	spec := cluster.Spec{P: 16, N: 4, Mapping: cluster.CyclicMapping}
	const m = 1 << 10
	natural, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(Ring), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(RankOrderedRing), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if natural.InterBytes <= ordered.InterBytes {
		t.Errorf("natural ring inter bytes %g <= rank-ordered %g; expected the opposite",
			natural.InterBytes, ordered.InterBytes)
	}
	ratio := natural.InterBytes / ordered.InterBytes
	if ratio < 3.5 || ratio > 4.5 {
		// 15 of 15 hops inter vs 4 of 16 positions crossing: ratio = l = 4.
		t.Errorf("inter-byte ratio = %.2f, want ~l=4", ratio)
	}
}

func TestMVAPICHDispatch(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping}
	small, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(MVAPICH(0)), MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if small.Critical.Rc != 3 { // lg 8: recursive doubling
		t.Errorf("small-message dispatch rc = %d, want 3 (RD)", small.Critical.Rc)
	}
	large, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(MVAPICH(0)), MsgSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if large.Critical.Rc != 7 { // p-1: ring
		t.Errorf("large-message dispatch rc = %d, want 7 (Ring)", large.Critical.Rc)
	}
}

func TestGatherBcastRoundTrip(t *testing.T) {
	spec := cluster.Spec{P: 12, N: 3, Mapping: cluster.CyclicMapping}
	algo := func(p *cluster.Proc, mine block.Message) block.Message {
		g := Group{Ranks: p.World()}
		parts := Gather(p, g, 5, mine)
		var full block.Message
		if g.Index(p.Rank()) == 5 {
			for _, part := range parts {
				full = block.Concat(full, part)
			}
		}
		return Bcast(p, g, 5, full)
	}
	res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: algo, MsgSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.ValidateGather(spec, 32, res.Results, true); err != nil {
		t.Fatal(err)
	}
}

func TestSubGroupAllgather(t *testing.T) {
	// All-gather over a strict subset of ranks: the concurrent algorithms
	// depend on this working.
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	sub := Group{Ranks: []int{1, 3, 4, 6}}
	algo := func(p *cluster.Proc, mine block.Message) block.Message {
		if sub.Index(p.Rank()) < 0 {
			return mine // bystanders
		}
		parts := RD(p, sub, mine)
		var out block.Message
		for _, part := range parts {
			out = block.Concat(out, part)
		}
		return out
	}
	res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: algo, MsgSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sub.Ranks {
		got := res.Results[r]
		if got.NumBlocks() != len(sub.Ranks) {
			t.Fatalf("rank %d holds %d blocks, want %d", r, got.NumBlocks(), len(sub.Ranks))
		}
	}
}

// Property: for random balanced specs and message sizes, all algorithms
// agree and are correct (real engine, pattern-checked).
func TestQuickAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(pSeed, nSeed, mSeed uint8, cyclic bool) bool {
		n := int(nSeed%4) + 1
		l := int(pSeed%4) + 1
		p := n * l
		m := int64(mSeed%100) + 1
		mapping := cluster.BlockMapping
		if cyclic {
			mapping = cluster.CyclicMapping
		}
		spec := cluster.Spec{P: p, N: n, Mapping: mapping}
		for _, alg := range allAlgs {
			res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: AsAlgorithm(alg), MsgSize: m})
			if err != nil {
				return false
			}
			if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: communication volume of ring and RD equals (n-1)m per rank
// for power-of-two groups (sim engine, exact counters).
func TestQuickVolumeOptimal(t *testing.T) {
	f := func(k, lk uint8, m16 uint16) bool {
		n := 1 << (k%3 + 1)  // 2,4,8 nodes
		l := 1 << (lk%3 + 1) // 2,4,8 per node
		m := int64(m16) + 1
		spec := cluster.Spec{P: n * l, N: n, Mapping: cluster.BlockMapping}
		for _, alg := range []Allgather{Ring, RD} {
			res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(alg), MsgSize: m})
			if err != nil {
				return false
			}
			if res.Critical.Sc != int64(spec.P-1)*m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborExchangeRounds(t *testing.T) {
	// Even group: n/2 rounds — half the ring's. Odd group: ring fallback.
	for _, p := range []int{2, 4, 8, 16} {
		spec := cluster.Spec{P: p, N: 1, Mapping: cluster.BlockMapping}
		res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(NeighborExchange), MsgSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if res.Critical.Rc != p/2 {
			t.Errorf("neighbor p=%d rc = %d, want %d", p, res.Critical.Rc, p/2)
		}
		if res.Critical.Sc != int64(p-1)*256 {
			t.Errorf("neighbor p=%d sc = %d, want %d (bandwidth optimal)", p, res.Critical.Sc, (p-1)*256)
		}
	}
	spec := cluster.Spec{P: 5, N: 1, Mapping: cluster.BlockMapping}
	res, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: AsAlgorithm(NeighborExchange), MsgSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical.Rc != 4 { // ring fallback: p-1
		t.Errorf("odd-size fallback rc = %d, want 4", res.Critical.Rc)
	}
}

func TestGatherBcastNonzeroRootsAllEngines(t *testing.T) {
	spec := cluster.Spec{P: 9, N: 3, Mapping: cluster.BlockMapping}
	for root := 0; root < spec.P; root += 4 {
		root := root
		algo := func(p *cluster.Proc, mine block.Message) block.Message {
			g := Group{Ranks: p.World()}
			parts := Gather(p, g, root, mine)
			var full block.Message
			if p.Rank() == root {
				for _, part := range parts {
					full = block.Concat(full, part)
				}
			}
			return Bcast(p, g, root, full)
		}
		res, err := cluster.RunOnce(spec, cluster.SessionConfig{}, cluster.Op{Algo: algo, MsgSize: 24})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if err := cluster.ValidateGather(spec, 24, res.Results, true); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		sres, err := cluster.SimOnce(spec, cost.Noleland(), cluster.Op{Algo: algo, MsgSize: 24})
		if err != nil {
			t.Fatalf("root %d sim: %v", root, err)
		}
		if err := cluster.ValidateGather(spec, 24, sres.Results, false); err != nil {
			t.Fatalf("root %d sim: %v", root, err)
		}
	}
}
