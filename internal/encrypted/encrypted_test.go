package encrypted

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/testkit"
)

func testSpecs() []cluster.Spec {
	return []cluster.Spec{
		{P: 4, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.CyclicMapping},
		{P: 8, N: 8, Mapping: cluster.BlockMapping}, // one rank per node
		{P: 16, N: 4, Mapping: cluster.CyclicMapping},
		{P: 12, N: 3, Mapping: cluster.BlockMapping},  // non-power-of-two
		{P: 12, N: 3, Mapping: cluster.CyclicMapping}, // non-power-of-two
		{P: 21, N: 7, Mapping: cluster.BlockMapping},  // odd, like Table V's 91/7
		{P: 12, N: 4, Mapping: cluster.CustomMapping,
			Custom: []int{2, 0, 3, 1, 1, 3, 0, 2, 3, 2, 1, 0}},
	}
}

// TestAllEncryptedCorrectAndSecure is the central correctness + security
// test: every algorithm, on every spec, must produce the right plaintext
// at every rank AND never let plaintext cross a node boundary.
func TestAllEncryptedCorrectAndSecure(t *testing.T) {
	for _, name := range Names() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, spec := range testSpecs() {
				s, res := testkit.Once(t, spec, cluster.SessionConfig{}, cluster.Op{Algo: alg, MsgSize: 40})
				testkit.Contract(t, s, block.UniformSizes(spec.P, 40), res)
				if spec.N > 1 && cluster.MessageTotals(res.PerRank).InterMsgs == 0 {
					t.Fatalf("%v: no inter-node messages at all?", spec)
				}
			}
		})
	}
}

func TestAllEncryptedCorrectSim(t *testing.T) {
	for _, spec := range testSpecs() {
		for _, name := range Names() {
			alg, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: alg, MsgSize: 2048})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if err := cluster.ValidateGatherV(spec, block.UniformSizes(spec.P, 2048), res.Results, false); err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if res.Latency <= 0 {
				t.Fatalf("%s on %v: non-positive latency", name, spec)
			}
		}
	}
}

// The simulator runs the same per-send plaintext check as the real
// engines: at paper scale (128 ranks on 8 nodes, Noleland) across the
// benchmark's five sizes, and for every encrypted algorithm at 8 ranks
// on 4 nodes, cyclic, no inter-node send carries a plaintext chunk. The
// unencrypted counterparts, with the same communication structure, are
// flagged.
func TestSimNoPlaintextCrossesNodes(t *testing.T) {
	type cell struct {
		spec  cluster.Spec
		names []string
		sizes []int64
	}
	paper := cluster.Spec{P: 128, N: 8, Mapping: cluster.BlockMapping}
	cyclic := cluster.Spec{P: 8, N: 4, Mapping: cluster.CyclicMapping}
	cells := []cell{
		{paper, PaperNames(), []int64{1, 1 << 10, 16 << 10, 256 << 10, 1 << 20}},
		{cyclic, Names(), []int64{1 << 10}},
	}
	for _, c := range cells {
		for _, name := range c.names {
			alg, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range c.sizes {
				res, err := testkit.Sim(c.spec, cost.Noleland(), cluster.Op{Algo: alg, MsgSize: m})
				if err != nil {
					t.Fatalf("%s m=%d on %v: %v", name, m, c.spec, err)
				}
				if msgs := cluster.MessageTotals(res.PerRank); msgs.PlainInterMsgs != 0 || msgs.InterMsgs == 0 {
					t.Errorf("%s m=%d on %v: %d of %d inter-node sends in plaintext: %v",
						name, m, c.spec, msgs.PlainInterMsgs, msgs.InterMsgs, msgs.Violations)
				}
			}
			res, err := testkit.Sim(c.spec, cost.Noleland(), cluster.Op{Algo: cluster.Plain(alg), MsgSize: 1 << 10})
			if err != nil {
				t.Fatalf("plain-%s on %v: %v", name, c.spec, err)
			}
			if msgs := cluster.MessageTotals(res.PerRank); msgs.PlainInterMsgs == 0 || len(msgs.Violations) == 0 {
				t.Errorf("plain-%s on %v: no plaintext inter-node send flagged", name, c.spec)
			}
		}
	}
}

// Table II signatures, power-of-two p and N, block mapping. p=128, N=8,
// l=16 — the exact configuration of Table III.
func TestTableIISignatures(t *testing.T) {
	spec := cluster.Spec{P: 128, N: 8, Mapping: cluster.BlockMapping}
	const m = 1024
	p, N, l := int64(spec.P), int64(spec.N), int64(spec.Ell())
	lgP, lgN := 7, 3

	cases := []struct {
		name string
		rc   int
		re   int
		se   int64
		rd   int
		sd   int64
	}{
		{"naive", lgP, 1, m, int(p - 1), (p - 1) * m},
		{"o-ring", int(p - 1), int(p - 1), (p - 1) * m, int(p - 1), (p - 1) * m},
		// O-RD: the paper's text derives r_d = N-1 (the table's p-l entry
		// is inconsistent with its own s_d column); see DESIGN.md.
		{"o-rd", lgP, 1, l * m, int(N - 1), (p - l) * m},
		{"o-rd2", lgP, lgN, (p - l) * m, lgN, (p - l) * m},
		{"c-ring", int(N + l - 2), 1, m, int(N - 1), (N - 1) * m},
		{"c-rd", lgP, 1, m, int(N - 1), (N - 1) * m},
		{"hs1", lgN, 1, l * m, int((N + l - 2) / l), 0 /* sd checked below */},
		{"hs2", lgN, 1, m, int(N - 1), (N - 1) * m},
	}
	for _, tc := range cases {
		alg, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: alg, MsgSize: m})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := res.Critical
		if c.Rc != tc.rc {
			t.Errorf("%s rc = %d, want %d", tc.name, c.Rc, tc.rc)
		}
		if c.Re != tc.re {
			t.Errorf("%s re = %d, want %d", tc.name, c.Re, tc.re)
		}
		if c.Se != tc.se {
			t.Errorf("%s se = %d, want %d", tc.name, c.Se, tc.se)
		}
		if c.Rd != tc.rd {
			t.Errorf("%s rd = %d, want %d", tc.name, c.Rd, tc.rd)
		}
		wantSd := tc.sd
		if tc.name == "hs1" {
			// sd = ceil((N-1)/l) * l * m = max(N,l)m for powers of two.
			cl := (N - 1 + l - 1) / l
			wantSd = cl * l * m
		}
		if c.Sd != wantSd {
			t.Errorf("%s sd = %d, want %d", tc.name, c.Sd, wantSd)
		}
		// Communication volume: all algorithms move (p-1)m except the HS
		// family, which moves (p-l)m through leaders (shared-memory
		// staging is a copy, not a message). Ciphertext framing adds at
		// most 28 bytes per ciphertext chunk sent.
		wantSc := (p - 1) * m
		if tc.name == "hs1" || tc.name == "hs2" {
			wantSc = (p - l) * m
		}
		slack := int64(28 * p * int64(lgP))
		if c.Sc < wantSc || c.Sc > wantSc+slack {
			t.Errorf("%s sc = %d, want in [%d, %d]", tc.name, c.Sc, wantSc, wantSc+slack)
		}
	}
}

// The lower bounds of Table I must hold for every algorithm on every
// power-of-two block-mapped spec: no measured metric may beat its bound.
func TestLowerBoundsRespected(t *testing.T) {
	spec := cluster.Spec{P: 16, N: 4, Mapping: cluster.BlockMapping}
	const m = 512
	for _, name := range PaperNames() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: alg, MsgSize: m})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := res.Critical
		// re >= 1, se >= m, rd >= ceil(lg N / lg(l+1)), sd >= (N-1)m.
		if c.Re < 1 {
			t.Errorf("%s re = %d beats lower bound 1", name, c.Re)
		}
		if c.Se < m {
			t.Errorf("%s se = %d beats lower bound m=%d", name, c.Se, m)
		}
		if c.Rd < 1 { // ceil(lg 4 / lg 5) = 1
			t.Errorf("%s rd = %d beats lower bound 1", name, c.Rd)
		}
		if c.Sd < int64(spec.N-1)*m {
			t.Errorf("%s sd = %d beats lower bound %d", name, c.Sd, (spec.N-1)*m)
		}
	}
}

// Property: random balanced specs, random small sizes, every paper
// algorithm correct and secure in the real engine.
func TestQuickEncryptedCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(nSeed, lSeed, mSeed uint8, cyclic bool) bool {
		n := int(nSeed%4) + 1
		l := int(lSeed%4) + 1
		m := int64(mSeed%96) + 1
		mapping := cluster.BlockMapping
		if cyclic {
			mapping = cluster.CyclicMapping
		}
		spec := cluster.Spec{P: n * l, N: n, Mapping: mapping}
		for _, name := range PaperNames() {
			alg, err := Get(name)
			if err != nil {
				return false
			}
			s, res := testkit.Once(t, spec, cluster.SessionConfig{}, cluster.Op{Algo: alg, MsgSize: m})
			testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if len(PaperNames()) != 8 {
		t.Fatalf("paper lists 8 algorithms, got %d", len(PaperNames()))
	}
	for _, n := range PaperNames() {
		if _, err := Get(n); err != nil {
			t.Errorf("paper algorithm %s missing: %v", n, err)
		}
	}
}

// Concurrent sub-groups must contain exactly one rank per node under any
// mapping.
func TestConcurrentGroupShape(t *testing.T) {
	specs := []cluster.Spec{
		{P: 16, N: 4, Mapping: cluster.BlockMapping},
		{P: 16, N: 4, Mapping: cluster.CyclicMapping},
		{P: 12, N: 4, Mapping: cluster.CustomMapping,
			Custom: []int{2, 0, 3, 1, 1, 3, 0, 2, 3, 2, 1, 0}},
	}
	for _, spec := range specs {
		seen := map[int]int{}
		for li := 0; li < spec.Ell(); li++ {
			nodes := map[int]bool{}
			for node := 0; node < spec.N; node++ {
				r := spec.RanksOnNode(node)[li]
				seen[r]++
				nodes[spec.NodeOf(r)] = true
			}
			if len(nodes) != spec.N {
				t.Fatalf("%v: group %d does not touch all nodes", spec, li)
			}
		}
		for r := 0; r < spec.P; r++ {
			if seen[r] != 1 {
				t.Fatalf("%v: rank %d in %d groups", spec, r, seen[r])
			}
		}
	}
}

// An operation's result is its own, not its rank slot's: on a one-slot
// session, where op B runs on op A's rank slot and draws over A's
// arenas, A's results are still byte-exact after B, for the paper's
// eight algorithms and the all-reduce, on both real engines.
func TestResultsOutliveTheirOperation(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	const mA, mB = 1000, 1500 // B's blocks differ from A's
	algs := map[string]cluster.Algorithm{"allreduce-hs": AllreduceHS(XOR)}
	for _, name := range PaperNames() {
		algs[name], _ = Get(name)
	}
	check := func(name string, m int64, res *cluster.RealResult) error {
		if name != "allreduce-hs" {
			return cluster.ValidateGatherV(spec, block.UniformSizes(spec.P, m), res.Results, true)
		}
		want := expectedXOR(spec.P, m)
		for r, msg := range res.Results {
			var got []byte
			for j, c := range msg.Chunks {
				if len(c.Blocks) != 1 || c.Blocks[0].Origin != j || c.Blocks[0].Len != int64(len(c.Payload)) {
					return fmt.Errorf("rank %d: slice %d has blocks %+v over %d bytes", r, j, c.Blocks, len(c.Payload))
				}
				got = append(got, c.Payload...)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: wrong reduction", r)
			}
		}
		return nil
	}
	for _, engine := range []cluster.EngineKind{cluster.EngineChan, cluster.EngineTCP} {
		s, err := cluster.OpenSession(spec, cluster.SessionConfig{Engine: engine, MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		for name, algo := range algs {
			a, err := s.Collective(context.Background(), cluster.Op{Algo: algo, MsgSize: mA})
			if err != nil {
				t.Fatalf("%v %s op A: %v", engine, name, err)
			}
			b, err := s.Collective(context.Background(), cluster.Op{Algo: algo, MsgSize: mB})
			if err != nil {
				t.Fatalf("%v %s op B: %v", engine, name, err)
			}
			if err := check(name, mB, b); err != nil {
				t.Fatalf("%v %s op B: %v", engine, name, err)
			}
			if err := check(name, mA, a); err != nil {
				t.Fatalf("%v %s: op A's result changed under op B: %v", engine, name, err)
			}
		}
		s.Close()
	}
}
