package encrypted

import (
	"fmt"

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
// Contributions must be single blocks (the standard all-gather payload).
func ORing(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	requireSingleBlock(mine)
	order := collective.RankOrder(p.Spec(), g)
	n := len(order)
	res := make([]block.Message, n)
	idxOf := make(map[int]int, n)
	for i, r := range g.Ranks {
		idxOf[r] = i
	}
	gi, ok := idxOf[p.Rank()]
	if !ok {
		panic(fmt.Sprintf("encrypted: rank %d not in group", p.Rank()))
	}
	res[gi] = mine
	if n == 1 {
		return res
	}
	i := 0
	for order[i] != p.Rank() {
		i++
	}
	succ := order[(i+1)%n]
	pred := order[(i-1+n)%n]
	cur := mine
	curIdx := gi
	for t := 1; t < n; t++ {
		var in block.Message
		if p.SameNode(p.Rank(), succ) {
			// Intra-node hops carry plaintext; decrypt first if needed,
			// keeping the plaintext for our own result too.
			if cur.HasCiphertext() {
				cur = p.DecryptAll(cur)
				res[curIdx] = cur
			}
			in = p.SendRecv(succ, cur, pred)
		} else if cur.HasCiphertext() {
			// Already sealed by an upstream node: forward untouched.
			in = p.SendRecv(succ, cur, pred)
		} else {
			// Leaving the node: seal a copy for its one send, keep the
			// plaintext locally.
			in = p.Wait(p.SealIsend(succ, cur.Chunks...), p.Irecv(pred))[1]
		}
		from := order[((i-t)%n+n)%n]
		curIdx = idxOf[from]
		res[curIdx] = in
		cur = in
	}
	// Whatever is still sealed was forwarded ciphertext; decrypt for our
	// own use.
	for idx := range res {
		if res[idx].HasCiphertext() {
			res[idx] = p.DecryptAll(res[idx])
		}
	}
	return res
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
