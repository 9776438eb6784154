package encrypted

import (
	"bytes"
	"testing"
	"testing/quick"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
	"encag/internal/cost"
	"encag/internal/testkit"
)

// expectedXOR computes the reference all-reduce result for the
// deterministic pattern inputs.
func expectedXOR(p int, m int64) []byte {
	out := make([]byte, m)
	for r := 0; r < p; r++ {
		XOR(out, block.FillPattern(r, m))
	}
	return out
}

// checkAllreduce validates that every rank's result equals the XOR of
// all contributions.
func checkAllreduce(t *testing.T, spec cluster.Spec, m int64, res *cluster.RealResult) {
	t.Helper()
	want := expectedXOR(spec.P, m)
	for r, msg := range res.Results {
		var got []byte
		for _, c := range msg.Chunks {
			if c.Enc {
				t.Fatalf("rank %d: encrypted chunk in final result", r)
			}
			got = append(got, c.Payload...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: wrong reduction (%d bytes vs %d expected)", r, len(got), len(want))
		}
	}
}

func TestAllreduceHSCorrectAndSecure(t *testing.T) {
	for _, spec := range []cluster.Spec{
		{P: 4, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.CyclicMapping},
		{P: 12, N: 3, Mapping: cluster.BlockMapping}, // non-power-of-two N
		{P: 8, N: 8, Mapping: cluster.BlockMapping},  // one rank per node
		{P: 6, N: 1, Mapping: cluster.BlockMapping},  // single node: no crypto at all
	} {
		for _, m := range []int64{1, 13, 64, 1000} {
			res, err := testkit.Run(spec, cluster.SessionConfig{}, cluster.Op{Algo: AllreduceHS(XOR), MsgSize: m})
			if err != nil {
				t.Fatalf("%v m=%d: %v", spec, m, err)
			}
			checkAllreduce(t, spec, m, res)
			if cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
				t.Fatalf("%v m=%d: plaintext crossed nodes: %v", spec, m, cluster.MessageTotals(res.PerRank).Violations)
			}
			if spec.N == 1 && res.Critical.Re != 0 {
				t.Fatalf("single-node all-reduce used encryption")
			}
		}
	}
}

func TestAllreduceNaiveCorrect(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	const m = 256
	res, err := testkit.Run(spec, cluster.SessionConfig{}, cluster.Op{Algo: AllreduceNaive(XOR), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	checkAllreduce(t, spec, m, res)
	if cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
		t.Fatalf("violations: %v", cluster.MessageTotals(res.PerRank).Violations)
	}
}

// The headline economics carry over: the hierarchical all-reduce
// decrypts far less than the naive one.
func TestAllreduceDecryptionEconomics(t *testing.T) {
	spec := cluster.Spec{P: 32, N: 4, Mapping: cluster.BlockMapping}
	const m = 64 << 10
	hs, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: AllreduceHS(XOR), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: AllreduceNaive(XOR), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Critical.Sd*8 > naive.Critical.Sd {
		t.Fatalf("hierarchical sd=%d not ≪ naive sd=%d", hs.Critical.Sd, naive.Critical.Sd)
	}
	if hs.Latency >= naive.Latency {
		t.Fatalf("hierarchical all-reduce (%g) not faster than naive (%g)", hs.Latency, naive.Latency)
	}
}

// The network adversary is detected on the reduction too.
func TestAllreduceTamperDetected(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	flipped, err := tamperedRun(t, spec, cluster.SessionConfig{}, cluster.Op{Algo: AllreduceHS(XOR), MsgSize: 64}, ciphertextAt)
	if flipped == 0 {
		t.Fatal("the plan never corrupted a frame")
	}
	if err == nil {
		t.Fatal("tampered reduction accepted")
	}
}

// Property: random shapes and sizes, both all-reduces agree with the
// reference XOR.
func TestQuickAllreduce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(nSeed, lSeed, mSeed uint8, cyclic bool) bool {
		n := int(nSeed%4) + 1
		l := int(lSeed%4) + 1
		m := int64(mSeed) + 1
		spec := cluster.Spec{P: n * l, N: n, Mapping: cluster.BlockMapping}
		if cyclic {
			spec.Mapping = cluster.CyclicMapping
		}
		want := expectedXOR(spec.P, m)
		for _, alg := range []cluster.Algorithm{AllreduceHS(XOR), AllreduceNaive(XOR)} {
			res, err := testkit.Run(spec, cluster.SessionConfig{}, cluster.Op{Algo: alg, MsgSize: m})
			if err != nil || cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
				return false
			}
			for _, msg := range res.Results {
				var got []byte
				for _, c := range msg.Chunks {
					got = append(got, c.Payload...)
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSpans(t *testing.T) {
	spans := sliceSpans(10, 4) // 3,3,2,2
	want := [][2]int64{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans = %v, want %v", spans, want)
		}
	}
	if s := sliceSpans(0, 3); s[2][1] != 0 {
		t.Fatal("zero-length spans broken")
	}
}

// XOR folds src into dst exactly as the byte loop it replaced, at
// lengths around the word and vector widths, and when dst and src are
// the same slice; a src shorter than dst panics, as the loop did.
func TestXORMatchesByteLoop(t *testing.T) {
	loop := func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}
	for _, n := range []int{0, 1, 7, 64, 64<<10 + 3} {
		src, dst := block.FillPattern(1, int64(n)), block.FillPattern(2, int64(n))
		want := bytes.Clone(dst)
		loop(want, src)
		XOR(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XOR differs from the byte loop", n)
		}
		want = bytes.Clone(dst)
		loop(want, want)
		XOR(dst, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: XOR of a slice with itself differs from the byte loop", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("XOR with a short src did not panic")
		}
	}()
	XOR(make([]byte, 8), make([]byte, 7))
}

// AllreduceNaive is the baseline: a Naive encrypted all-gather followed
// by a full local reduction at every rank — correct, but with the same
// (p-1)m decryption bill the paper's Table II shows for Naive, plus
// (p-1)m of local combining.
func AllreduceNaive(op Combine) func(p *cluster.Proc, mine block.Message) block.Message {
	gather := Naive(collective.MVAPICH(0))
	return func(p *cluster.Proc, mine block.Message) block.Message {
		all := gather(p, mine)
		spans := sliceSpans(mine.PlainLen(), 1)
		var acc block.Chunk
		first := true
		for _, c := range all.Chunks {
			// Re-key every gathered rank block as slice 0 so they
			// combine.
			sc := sliceChunk(block.Message{Chunks: []block.Chunk{c}}, spans, 0)
			if first {
				acc = ownChunk(sc)
				first = false
				continue
			}
			acc = combineChunks(acc, sc, op)
			p.CopyCharge(sc.PlainLen())
		}
		return block.Message{Chunks: []block.Chunk{acc}}
	}
}
