package collective

import (
	"fmt"
	"slices"

	"encag/internal/block"
	"encag/internal/cluster"
)

// NeighborExchange is the neighbor-exchange all-gather (Chen and Yuan;
// also in Open MPI): for an even group size it completes in n/2 rounds —
// half as many as the ring — by pairing adjacent members and alternating
// pair boundaries, each member forwarding the two contributions it
// received in the previous round. Odd group sizes fall back to the ring.
//
// Per-member volume is the ring's (n-1)m, but the round count makes it
// attractive for medium sizes on latency-bound fabrics; it is included
// as one more production baseline beyond the paper's set.
func NeighborExchange(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	n := g.Size()
	if n%2 == 1 {
		return Ring(p, g, mine)
	}
	i := g.Index(p.Rank())
	if i < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group", p.Rank()))
	}
	held := newHeld(n, i, mine)
	right := g.Ranks[(i+1)%n]
	left := g.Ranks[(i-1+n)%n]
	// Even members start by exchanging with their right neighbor, odd
	// members with their left; afterwards the pairing alternates.
	first, second := right, left
	if i%2 == 1 {
		first, second = left, right
	}

	// Round 1: exchange own contributions.
	in := p.SendRecv(first, held[i], first)
	mergeByTag(held, in)
	lastRecv := []int{i}
	for _, c := range in.Chunks {
		lastRecv = appendUnique(lastRecv, c.Tag)
	}

	for s := 2; s <= n/2; s++ {
		partner := second
		if s%2 == 1 {
			partner = first
		}
		var out block.Message
		for _, tag := range lastRecv {
			out.Append(held[tag].Chunks...)
		}
		in := p.SendRecv(partner, out, partner)
		lastRecv = lastRecv[:0]
		for _, c := range in.Chunks {
			lastRecv = appendUnique(lastRecv, c.Tag)
		}
		for _, tag := range lastRecv {
			if len(held[tag].Chunks) > 0 {
				panic(fmt.Sprintf("collective: neighbor exchange received duplicate contribution %d at step %d", tag, s))
			}
		}
		mergeByTag(held, in)
		// Deterministic order for the next round's send.
		slices.Sort(lastRecv)
	}
	return collectHeld(held)
}

func appendUnique(s []int, v int) []int {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}
