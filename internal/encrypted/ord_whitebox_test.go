package encrypted

import (
	"fmt"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/testkit"
)

// White-box tests of the O-RD working-set state machine, run through a
// tiny scripted world so individual rules are visible.

// The ciphertext cache must make repeated inter-node sends of an
// unchanged plaintext set reuse one sealed copy (O-RD's r_e = 1).
func TestOrdStateCacheReuse(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 4, Mapping: cluster.BlockMapping} // every rank its own node
	algo := func(p *cluster.Proc, mine block.Message) block.Message {
		g := Group{Ranks: []int{0, 1, 2, 3}}
		s := newOrdState(p, g, mine, false)
		if p.Rank() == 0 {
			// Two inter-node sends with an unchanged plaintext set.
			out1 := s.outgoing(1)
			out2 := s.outgoing(2)
			if out1.NumCiphertexts() != 1 || out2.NumCiphertexts() != 1 {
				panic("expected exactly one ciphertext per outgoing set")
			}
			if p.Metrics().EncRounds != 1 {
				panic("cache miss: plaintext set was sealed twice")
			}
			p.Send(1, out1)
			p.Send(2, out2)
		}
		if p.Rank() == 1 || p.Rank() == 2 {
			in := p.Recv(0)
			s.absorb(in)
			s.openAll()
		}
		return testkit.AllBlocks(p, mine)
	}
	if _, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: algo, MsgSize: 512}); err != nil {
		t.Fatal(err)
	}
}

// An intra-node send must open every carried ciphertext first.
func TestOrdStateIntraSendsPlain(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping}
	var intraPayloadEnc bool
	algo := func(p *cluster.Proc, mine block.Message) block.Message {
		g := Group{Ranks: []int{0, 1, 2, 3}}
		s := newOrdState(p, g, mine, false)
		switch p.Rank() {
		case 2: // other node: send rank 0 a sealed block
			p.Send(0, s.outgoing(0))
		case 0: // receives ciphertext, then must forward plaintext to 1 (same node)
			s.absorb(p.Recv(2))
			out := s.outgoing(1)
			if out.HasCiphertext() {
				intraPayloadEnc = true
			}
			p.Send(1, out)
		case 1:
			in := p.Recv(0)
			if in.HasCiphertext() {
				intraPayloadEnc = true
			}
		}
		return testkit.AllBlocks(p, mine)
	}
	if _, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: algo, MsgSize: 256}); err != nil {
		t.Fatal(err)
	}
	if intraPayloadEnc {
		t.Fatal("intra-node send carried ciphertext")
	}
}

// O-RD2's merge path must re-seal the whole set each time (no cache) and
// leave no carried ciphertexts behind.
func TestOrdStateMergePath(t *testing.T) {
	spec := cluster.Spec{P: 2, N: 2, Mapping: cluster.BlockMapping}
	algo := func(p *cluster.Proc, mine block.Message) block.Message {
		g := Group{Ranks: []int{0, 1}}
		s := newOrdState(p, g, mine, true)
		other := 1 - p.Rank()
		out := s.outgoing(other)
		if out.NumCiphertexts() != 1 {
			panic("merge path must produce one ciphertext")
		}
		in := p.SendRecv(other, out, other)
		s.absorb(in)
		res := s.finish()
		if len(s.cts) != 0 {
			panic("carried ciphertexts after finish")
		}
		return res
	}
	res, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: algo, MsgSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.ValidateGatherV(spec, block.UniformSizes(spec.P, 128), res.Results, false); err != nil {
		t.Fatal(err)
	}
}

// finish must fail loudly when a contribution is missing.
func TestOrdStateFinishIncomplete(t *testing.T) {
	spec := cluster.Spec{P: 2, N: 2, Mapping: cluster.BlockMapping}
	_, err := testkit.Sim(spec, cost.Noleland(), cluster.Op{Algo: func(p *cluster.Proc, mine block.Message) block.Message {
		g := Group{Ranks: []int{0, 1}}
		s := newOrdState(p, g, mine, false)
		return s.finish() // never exchanged: member missing
	}, MsgSize: 64})
	if err == nil {
		t.Fatal("finish on incomplete state must panic")
	}
}

// O-RD hands out its result as one chunk per member, in member order:
// a view of its working set in the rank's arena, capped so that
// appending to it copies instead of overwriting the arena's next draw.
func TestOrdResultsAreCappedOneChunkViews(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	for name, sub := range map[string]groupAllgather{"o-rd": ORD, "o-rd2": ORD2} {
		algo := func(p *cluster.Proc, mine block.Message) block.Message {
			res := sub(p, Group{Ranks: p.World()}, mine)
			if len(res.Chunks) != p.P() || cap(res.Chunks) != p.P() {
				panic(fmt.Sprintf("rank %d: %d chunks of capacity %d, want %d", p.Rank(), len(res.Chunks), cap(res.Chunks), p.P()))
			}
			for j, c := range res.Chunks {
				if len(c.Blocks) != 1 || c.Blocks[0].Origin != j {
					panic(fmt.Sprintf("rank %d: member %d holds %+v", p.Rank(), j, c.Blocks))
				}
			}
			return p.Assemble(res)
		}
		t.Run(name, func(t *testing.T) {
			s, res := testkit.Once(t, spec, cluster.SessionConfig{}, cluster.Op{Algo: algo, MsgSize: 64})
			testkit.Contract(t, s, block.UniformSizes(spec.P, 64), res)
		})
	}
}
