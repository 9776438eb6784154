package collective

import (
	"cmp"
	"fmt"
	"slices"

	"encag/internal/block"
	"encag/internal/cluster"
)

// ringOver runs the ring all-gather over an explicit traversal order of
// the group (member indices) and returns per-group-position
// contributions.
//
// In each of the n-1 iterations every member forwards to its ring
// successor the contribution it received in the previous iteration (its
// own in the first), so iteration time is one send/receive pair — the
// (p-1)(alpha + m*beta) pattern of Thakur et al.
func ringOver(p *cluster.Proc, g Group, order []int, mine block.Message) []block.Message {
	n := len(order)
	if n != g.Size() {
		panic(fmt.Sprintf("collective: ring order has %d entries for group of %d", n, g.Size()))
	}
	gi := g.Index(p.Rank())
	if gi < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group", p.Rank()))
	}
	res := p.Messages(n)[:n]
	cur := tagged(p, mine, gi)
	res[gi] = cur
	if n == 1 {
		return res
	}
	i := slices.Index(order, gi)
	succ := g.Ranks[order[(i+1)%n]]
	pred := g.Ranks[order[(i-1+n)%n]]
	for t := 1; t < n; t++ {
		in := p.SendRecv(succ, cur, pred)
		res[order[((i-t)%n+n)%n]] = in
		cur = in
	}
	return res
}

// Ring is the classic ring all-gather in natural group order. Its
// logical neighbour pattern is fixed, so its node-boundary behaviour —
// and hence its performance — depends on the process mapping.
func Ring(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return ringOver(p, g, members(p, g), mine)
}

// RankOrderedRing rearranges the ring to follow node locality (Kandalla
// et al. [13]): members are traversed node by node, so exactly one hop
// per node pair crosses the network regardless of the process mapping.
func RankOrderedRing(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return ringOver(p, g, RankOrder(p, g), mine)
}

// RankOrder returns the group's member indices sorted by their ranks'
// (node, rank), drawn from p's arena: the traversal used by the
// rank-ordered ring and by the opportunistic ring variants.
func RankOrder(p *cluster.Proc, g Group) []int {
	spec, order := p.Spec(), members(p, g)
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := g.Ranks[a], g.Ranks[b]
		return cmp.Or(cmp.Compare(spec.NodeOf(ra), spec.NodeOf(rb)), cmp.Compare(ra, rb))
	})
	return order
}

// members returns the group's member indices in order, drawn from p's
// arena.
func members(p *cluster.Proc, g Group) []int {
	order := p.Ints(g.Size())
	for i := range g.Ranks {
		order = append(order, i)
	}
	return order
}
