package collective

import (
	"cmp"
	"fmt"
	"slices"

	"encag/internal/block"
	"encag/internal/cluster"
)

// ringOver runs the ring all-gather over an explicit traversal order of
// the group's world ranks and returns per-group-position contributions.
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
	res := make([]block.Message, g.Size())
	idxOf := make(map[int]int, n)
	for gi, r := range g.Ranks {
		idxOf[r] = gi
	}
	i := indexIn(order, p.Rank())
	gi, ok := idxOf[p.Rank()]
	if !ok {
		panic(fmt.Sprintf("collective: rank %d not in group", p.Rank()))
	}
	cur := tagged(mine, gi)
	res[gi] = cur
	if n == 1 {
		return res
	}
	succ := order[(i+1)%n]
	pred := order[(i-1+n)%n]
	for t := 1; t < n; t++ {
		in := p.SendRecv(succ, cur, pred)
		from := order[((i-t)%n+n)%n]
		res[idxOf[from]] = in
		cur = in
	}
	return res
}

func indexIn(order []int, rank int) int {
	for i, r := range order {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("collective: rank %d not in ring order", rank))
}

// Ring is the classic ring all-gather in natural group order. Its
// logical neighbour pattern is fixed, so its node-boundary behaviour —
// and hence its performance — depends on the process mapping.
func Ring(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return ringOver(p, g, g.Ranks, mine)
}

// RankOrderedRing rearranges the ring to follow node locality (Kandalla
// et al. [13]): members are traversed node by node, so exactly one hop
// per node pair crosses the network regardless of the process mapping.
func RankOrderedRing(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	return ringOver(p, g, rankOrdered(p.Spec(), g), mine)
}

// RankOrder sorts the group's ranks by (node, rank): the traversal used
// by the rank-ordered ring and by the opportunistic ring variants.
func RankOrder(spec cluster.Spec, g Group) []int {
	return rankOrdered(spec, g)
}

// rankOrdered sorts the group's ranks by (node, rank).
func rankOrdered(spec cluster.Spec, g Group) []int {
	order := slices.Clone(g.Ranks)
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(spec.NodeOf(a), spec.NodeOf(b)), cmp.Compare(a, b))
	})
	return order
}
