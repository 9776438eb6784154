package cluster

import (
	"math"
	"strings"
	"testing"

	"encag/internal/block"
	"encag/internal/cost"
)

// uniformProfile has clean round numbers so timing assertions are exact.
func uniformProfile() cost.Profile {
	return cost.Profile{
		Name:       "uniform-test",
		AlphaInter: 1e-6, AlphaIntra: 1e-6,
		NICTx: 1e18, NICRx: 1e18, CoreBW: 1e9,
		MemPool: 1e18, MemFlowBW: 1e9,
		AlphaEnc: 1e-6, AlphaDec: 1e-6, EncBW: 1e9, DecBW: 0.5e9,
		AlphaCopy: 1e-6, CopyBW: 1e9,
		AlphaBarrier: 2e-6,
	}
}

// Computation posted between Isend/Irecv and Wait overlaps the transfer:
// total time is max(transfer, compute), not their sum.
func TestSimOverlapSemantics(t *testing.T) {
	prof := uniformProfile()
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	const m = 1 << 20 // transfer ~1.05ms at 1 GB/s

	serial := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
		return block.Concat(mine, p.DecryptAll(in))
	}
	overlapped := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		s := p.Isend(other, block.Message{Chunks: []block.Chunk{ct}})
		r := p.Irecv(other)
		// Busy-work while the wire is busy: decrypt a dummy ciphertext.
		dummy := p.Encrypt(mine.Chunks...)
		p.Decrypt(dummy)
		in := p.Wait(s, r)[1]
		return block.Concat(mine, p.DecryptAll(in))
	}
	rs, err := SimOnce(spec, prof, Op{Algo: serial, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := SimOnce(spec, prof, Op{Algo: overlapped, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	// The overlapped version does strictly more work (one extra
	// encrypt+decrypt of m bytes = ~3.1ms at these rates) but the wire
	// time (~1ms) is hidden under it, so the difference must be well
	// under the sum of the extra work and the transfer.
	extraWork := prof.EncryptTime(m) + prof.DecryptTime(m)
	if ro.Latency >= rs.Latency+extraWork {
		t.Fatalf("no overlap: serial=%g overlapped=%g extra=%g", rs.Latency, ro.Latency, extraWork)
	}
	if ro.Latency <= rs.Latency {
		t.Fatalf("overlapped run does more work; it cannot be faster: %g vs %g", ro.Latency, rs.Latency)
	}
}

// Consecutive Isends serialize their startup costs on the sender.
func TestSimIsendAlphaSerialization(t *testing.T) {
	prof := uniformProfile()
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	const k = 5
	algo := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			reqs := make([]Request, 0, k)
			for i := 0; i < k; i++ {
				reqs = append(reqs, p.Isend(1, block.NewSim(0, 0)))
			}
			p.Wait(reqs...)
		} else {
			reqs := make([]Request, 0, k)
			for i := 0; i < k; i++ {
				reqs = append(reqs, p.Irecv(0))
			}
			p.Wait(reqs...)
		}
		// Return a full gather so validation passes.
		if p.Rank() == 0 {
			return block.Concat(mine, block.NewSim(1, 64))
		}
		return block.Concat(block.NewSim(0, 64), mine)
	}
	res, err := SimOnce(spec, prof, Op{Algo: algo, MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Sender pays k alphas; zero-byte flows cost nothing else.
	want := float64(k) * prof.AlphaInter
	if math.Abs(res.EndTimes[0]-want) > 1e-12 {
		t.Fatalf("sender time = %g, want %g (k alphas)", res.EndTimes[0], want)
	}
}

// NodeBarrier charges AlphaBarrier * ceil(lg l) and synchronises clocks.
func TestSimBarrierCostAndSync(t *testing.T) {
	prof := uniformProfile()
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping} // l=4 -> 2 stages
	algo := func(p *Proc, mine block.Message) block.Message {
		if p.Spec().LocalIndex(p.Rank()) == 0 {
			p.CopyCharge(1e9) // 1 second of work on one rank per node
		}
		p.NodeBarrier()
		return allBlocks(p, mine)
	}
	res, err := SimOnce(spec, prof, Op{Algo: algo, MsgSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone leaves the barrier when the slowest rank arrives: copy
	// (alphaCopy + 1s) plus the barrier charge 2*AlphaBarrier.
	want := prof.AlphaCopy + 1.0 + 2*prof.AlphaBarrier
	for r, end := range res.EndTimes {
		if math.Abs(end-want) > 1e-9 {
			t.Fatalf("rank %d left barrier at %g, want %g", r, end, want)
		}
	}
}

// allBlocks fabricates a complete gather result so ValidateGather-style
// bookkeeping is satisfied in micro-tests.
func allBlocks(p *Proc, mine block.Message) block.Message {
	out := block.Message{}
	m := mine.PlainLen()
	for r := 0; r < p.P(); r++ {
		if r == p.Rank() {
			out = block.Concat(out, mine)
		} else {
			out = block.Concat(out, block.NewSim(r, m))
		}
	}
	return out
}

// Inter/intra byte accounting separates correctly by mapping.
func TestSimInterIntraAccounting(t *testing.T) {
	prof := uniformProfile()
	algo := func(p *Proc, mine block.Message) block.Message {
		next := (p.Rank() + 1) % p.P()
		prev := (p.Rank() - 1 + p.P()) % p.P()
		p.SendRecv(next, mine, prev)
		return allBlocks(p, mine)
	}
	const m = 1000
	block4 := Spec{P: 4, N: 2, Mapping: BlockMapping}
	res, err := SimOnce(block4, prof, Op{Algo: algo, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	// Block mapping ring step: ranks 1->2 and 3->0 cross nodes: 2 msgs.
	if res.InterBytes != 2*m {
		t.Fatalf("block inter bytes = %g, want %d", res.InterBytes, 2*m)
	}
	if res.IntraBytes != 2*m {
		t.Fatalf("block intra bytes = %g, want %d", res.IntraBytes, 2*m)
	}
	cyc := Spec{P: 4, N: 2, Mapping: CyclicMapping}
	res, err = SimOnce(cyc, prof, Op{Algo: algo, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	// Cyclic: every hop crosses nodes.
	if res.InterBytes != 4*m || res.IntraBytes != 0 {
		t.Fatalf("cyclic inter/intra = %g/%g, want %d/0", res.InterBytes, res.IntraBytes, 4*m)
	}
	// Per-rank metrics agree.
	for r, met := range res.PerRank {
		if met.IntraBytesSent != 0 || met.InterBytesSent != m {
			t.Fatalf("rank %d inter/intra sent = %d/%d", r, met.InterBytesSent, met.IntraBytesSent)
		}
	}
}

// The plaintext-mode wrapper really disables crypto charges.
func TestPlainModeDisablesCrypto(t *testing.T) {
	prof := uniformProfile()
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	algo := Plain(func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		if ct.Enc {
			panic("plain mode produced a ciphertext")
		}
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
		return block.Concat(mine, p.DecryptAll(in))
	})
	res, err := SimOnce(spec, prof, Op{Algo: algo, MsgSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Critical
	if c.Re != 0 || c.Rd != 0 || c.Se != 0 || c.Sd != 0 {
		t.Fatalf("plain mode charged crypto: %+v", c)
	}
	want := prof.AlphaInter + float64(1<<20)/1e9
	if math.Abs(res.Latency-want) > want*1e-9 {
		t.Fatalf("latency = %g, want pure transfer %g", res.Latency, want)
	}
}

// An EngineSim session validates its profile once, at open: one with a
// zero field never opens, so Sim need not check it per run.
func TestSimSessionValidatesProfileAtOpen(t *testing.T) {
	prof := uniformProfile()
	prof.CoreBW = 0
	s, err := OpenSession(Spec{P: 4, N: 2, Mapping: BlockMapping}, SessionConfig{Engine: EngineSim, Profile: prof})
	if err == nil {
		s.Close()
		t.Fatal("sim session with a zero CoreBW opened")
	}
	if !strings.Contains(err.Error(), "CoreBW") {
		t.Fatalf("error %q does not name the zero field", err)
	}
	// The real engines ignore the profile.
	s, err = OpenSession(Spec{P: 2, N: 1, Mapping: BlockMapping}, SessionConfig{Engine: EngineChan, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}
