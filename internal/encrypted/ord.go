package encrypted

import (
	"fmt"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// Group aliases the collective communicator type.
type Group = collective.Group

// ordState carries a process's working set during O-RD/O-RD2: the
// contributions it holds in plaintext and the foreign ciphertexts it is
// carrying unopened.
type ordState struct {
	p     *cluster.Proc
	g     Group
	merge bool // O-RD2: merge ciphertexts by decrypt+re-encrypt

	plain  []block.Chunk // [member]: its plaintext single-block chunk, empty until held
	nplain int           // members held in plain
	cts    []block.Chunk // unopened foreign ciphertexts, arrival order
	split  []block.Chunk // scratch: a split chunk, or the set handed to Encrypt

	// Cache of the ciphertext covering the current plaintext set, so the
	// set is sealed once and reused across inter-node rounds (this is
	// what gives O-RD its r_e = 1, s_e = l*m signature under block
	// mapping). The plaintext set only ever grows, so its size identifies
	// it.
	cachedCT   block.Chunk
	cachedSize int
}

func newOrdState(p *cluster.Proc, g Group, mine block.Message, merge bool) *ordState {
	requireSingleBlock(mine)
	i := g.Index(p.Rank())
	if i < 0 {
		panic(fmt.Sprintf("encrypted: rank %d not in group", p.Rank()))
	}
	s := &ordState{p: p, g: g, merge: merge, plain: make([]block.Chunk, g.Size()), nplain: 1}
	s.plain[i] = mine.Chunks[0]
	return s
}

// memberOf maps a block origin (world rank) to its group index.
func (s *ordState) memberOf(origin int) int {
	idx := s.g.Index(origin)
	if idx < 0 {
		panic(fmt.Sprintf("encrypted: block origin %d not a group member", origin))
	}
	return idx
}

// absorbPlainChunk splits a plaintext chunk into per-member entries.
func (s *ordState) absorbPlainChunk(c block.Chunk) {
	s.split = block.SplitChunk(s.split[:0], c)
	for _, sc := range s.split {
		idx := s.memberOf(sc.Blocks[0].Origin)
		if len(s.plain[idx].Blocks) == 0 {
			s.nplain++
		}
		s.plain[idx] = sc
	}
}

// absorb folds a received message into the working set.
func (s *ordState) absorb(in block.Message) {
	for _, c := range in.Chunks {
		if c.Enc {
			s.cts = append(s.cts, c)
		} else {
			s.absorbPlainChunk(c)
		}
	}
}

// openAll decrypts every carried ciphertext into the plaintext set.
func (s *ordState) openAll() {
	for _, ct := range s.cts {
		s.absorbPlainChunk(s.p.Decrypt(ct))
	}
	s.cts = s.cts[:0]
}

// plainChunksSorted appends the plaintext set to dst in member order —
// the canonical transmission layout.
func (s *ordState) plainChunksSorted(dst []block.Chunk) []block.Chunk {
	for _, c := range s.plain {
		if len(c.Blocks) > 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// sealPlain seals the plaintext set as one ciphertext.
func (s *ordState) sealPlain() block.Chunk {
	s.split = s.plainChunksSorted(s.split[:0])
	return s.p.Encrypt(s.split...)
}

// outgoing prepares the full working set for transmission to dst under
// the opportunistic rule.
func (s *ordState) outgoing(dst int) block.Message {
	if s.p.SameNode(s.p.Rank(), dst) {
		// Intra-node: plaintext only. Anything sealed must be opened
		// first (and then serves our own result too).
		s.openAll()
		return block.Message{Chunks: s.plainChunksSorted(make([]block.Chunk, 0, s.nplain))}
	}
	if s.merge {
		// O-RD2: open everything and re-seal the whole set as one
		// ciphertext. Fewer ciphertexts for the receiver (r_d = lg N) at
		// the price of re-encrypting grown sets (s_e = (p-l)m).
		s.openAll()
		return block.Message{Chunks: []block.Chunk{s.sealPlain()}}
	}
	// O-RD: seal the plaintext set once, reuse the sealed copy while the
	// set is unchanged, and forward foreign ciphertexts untouched.
	if s.cachedSize != s.nplain {
		s.cachedCT = s.sealPlain()
		s.cachedSize = s.nplain
	}
	out := block.Message{Chunks: []block.Chunk{s.cachedCT}}
	out.Chunks = append(out.Chunks, s.cts...)
	return out
}

// finish opens any remaining ciphertexts and returns per-member results:
// one-chunk, capacity-capped views of the working set.
func (s *ordState) finish() []block.Message {
	s.openAll()
	out := make([]block.Message, len(s.plain))
	for idx := range s.plain {
		if len(s.plain[idx].Blocks) == 0 {
			panic(fmt.Sprintf("encrypted: O-RD finished without contribution of member %d", idx))
		}
		out[idx] = block.Message{Chunks: s.plain[idx : idx+1 : idx+1]}
	}
	return out
}

// oRD runs the Opportunistic Recursive Doubling all-gather over a group;
// merge selects the O-RD2 variant. The exchange schedule is identical to
// the unencrypted RD (including the non-power-of-two remainder scheme);
// only the payload handling differs.
func oRD(p *cluster.Proc, g Group, mine block.Message, merge bool) []block.Message {
	n := g.Size()
	s := newOrdState(p, g, mine, merge)
	if n == 1 {
		return s.finish()
	}
	i := g.Index(p.Rank())
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	if i >= pof2 {
		peer := g.Ranks[i-pof2]
		p.Send(peer, s.outgoing(peer))
		in := p.Recv(peer)
		// The full result replaces the working set; our own block stays
		// authoritative from the local plaintext.
		own := s.plain[i]
		clear(s.plain)
		s.plain[i], s.nplain = own, 1
		s.cts = nil
		s.cachedSize = 0
		s.absorb(in)
		return s.finish()
	}
	if i < rem {
		in := p.Recv(g.Ranks[i+pof2])
		s.absorb(in)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := g.Ranks[i^mask]
		out := s.outgoing(partner)
		in := p.SendRecv(partner, out, partner)
		s.absorb(in)
	}
	if i < rem {
		peer := g.Ranks[i+pof2]
		p.Send(peer, s.outgoing(peer))
	}
	return s.finish()
}

// ORD is the Opportunistic Recursive Doubling all-gather: intra-node
// rounds move plaintext, inter-node rounds seal the sender's plaintext
// set once and forward foreign ciphertexts unmodified.
func ORD(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return oRD(p, g, mine, false)
}

// ORD2 is the merging variant: before each inter-node send the carried
// ciphertexts are opened and the whole set re-sealed as one ciphertext,
// trading encryption volume for far fewer decryption rounds (lg N) —
// better for small messages, as the paper predicts.
func ORD2(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return oRD(p, g, mine, true)
}
