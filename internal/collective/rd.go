package collective

import (
	"encag/internal/block"
	"encag/internal/cluster"
)

// RD is the recursive-doubling all-gather. For a power-of-two group it
// runs lg(n) exchange rounds, doubling the partner distance and the data
// volume each round. For other sizes it uses the standard remainder
// scheme: the n-pof2 extra members first fold their contribution into a
// power-of-two core, the core runs RD, and the result is expanded back —
// at most 2+lg(pof2) <= 2*lg(n) rounds, as the paper notes.
func RD(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	n := g.Size()
	i := g.Index(p.Rank())
	held := newHeld(p, n, i, mine)
	if n == 1 {
		return held
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	if i >= pof2 {
		// Extra member: fold into the core, then receive the full result
		// (which includes a copy of our own contribution).
		p.Send(g.Ranks[i-pof2], concat(p, held))
		in := p.Recv(g.Ranks[i-pof2])
		held = p.Messages(n)[:n]
		mergeByTag(held, in)
		return collectHeld(held)
	}
	if i < rem {
		in := p.Recv(g.Ranks[i+pof2])
		mergeByTag(held, in)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := g.Ranks[i^mask]
		in := p.SendRecv(partner, concat(p, held), partner)
		mergeByTag(held, in)
	}
	if i < rem {
		p.Send(g.Ranks[i+pof2], concat(p, held))
	}
	return collectHeld(held)
}
