package encrypted

import (
	"fmt"
	"slices"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// ORing runs the Opportunistic Ring all-gather over a group: the
// rank-ordered ring pattern of [13] where a hop is encrypted only when it
// actually crosses a node boundary. A node's exit process encrypts each
// block it forwards out; an entry process decrypts each incoming
// ciphertext before forwarding it in the clear inside the node; a process
// alone on its node simply forwards ciphertexts untouched and decrypts
// its own copy at the end (this is the behaviour the Concurrent family
// relies on, giving r_e = 1, s_e = m, r_d = N-1, s_d = (N-1)m there).
//
// Contributions must be single blocks (the standard all-gather payload),
// so every hop carries one chunk.
func ORing(p *cluster.Proc, g Group, mine block.Message) block.Message {
	requireSingleBlock(mine)
	n := g.Size()
	gi := g.Index(p.Rank())
	if gi < 0 {
		panic(fmt.Sprintf("encrypted: rank %d not in group", p.Rank()))
	}
	res := p.Chunks(n)[:n] // [member]: its contribution
	res[gi] = mine.Chunks[0]
	if n == 1 {
		return block.Message{Chunks: res}
	}
	order := collective.RankOrder(p, g)
	i := slices.Index(order, gi)
	succ := g.Ranks[order[(i+1)%n]]
	pred := g.Ranks[order[(i-1+n)%n]]
	cur := mine
	curIdx := gi
	for t := 1; t < n; t++ {
		var in block.Message
		if p.SameNode(p.Rank(), succ) {
			// Intra-node hops carry plaintext; decrypt first if needed,
			// keeping the plaintext for our own result too.
			if cur.HasCiphertext() {
				cur = p.DecryptAll(cur)
				res[curIdx] = cur.Chunks[0]
			}
			in = p.SendRecv(succ, cur, pred)
		} else if cur.HasCiphertext() {
			// Already sealed by an upstream node: forward untouched.
			in = p.SendRecv(succ, cur, pred)
		} else {
			// Leaving the node: seal a copy for its one send, keep the
			// plaintext locally. succ forwards it on sealed when it has a
			// hop left and its own successor is on another node (it is
			// alone on its node in the ring); otherwise it opens it.
			relay := t < n-1 && !p.SameNode(succ, g.Ranks[order[(i+2)%n]])
			in = p.Wait(p.SealIsend(succ, relay, cur.Chunks...), p.Irecv(pred))[1]
		}
		curIdx = order[((i-t)%n+n)%n]
		res[curIdx] = in.Chunks[0]
		cur = in
	}
	// Whatever is still sealed was forwarded ciphertext; decrypt for our
	// own use.
	for idx, c := range res {
		if c.Enc {
			res[idx] = p.Decrypt(c)
		}
	}
	return block.Message{Chunks: res}
}

// requireSingleBlock guards the O-* algorithms' contract.
func requireSingleBlock(mine block.Message) {
	if mine.NumBlocks() != 1 {
		panic(fmt.Sprintf("encrypted: contribution must be a single block, got %d", mine.NumBlocks()))
	}
	if mine.HasCiphertext() {
		panic("encrypted: contribution must be plaintext")
	}
}
