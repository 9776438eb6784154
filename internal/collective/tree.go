package collective

import (
	"encag/internal/block"
	"encag/internal/cluster"
)

// Gather collects every member's contribution at the group's root
// (position rootIdx) along a binomial tree: lg(n) rounds at the root.
// The returned slice is populated (per group position) only at the root;
// other members return nil.
func Gather(p *cluster.Proc, g Group, rootIdx int, mine block.Message) []block.Message {
	n := g.Size()
	i := g.Index(p.Rank())
	v := ((i-rootIdx)%n + n) % n // relabel so the root is 0
	held := newHeld(p, n, i, mine)
	for mask := 1; mask < n; mask <<= 1 {
		if v&mask != 0 {
			peer := g.Ranks[(v-mask+rootIdx)%n]
			p.Send(peer, concat(p, held))
			return nil
		}
		if v+mask < n {
			peer := g.Ranks[(v+mask+rootIdx)%n]
			mergeByTag(held, p.Recv(peer))
		}
	}
	return collectHeld(held)
}

// Bcast distributes msg from the root (group position rootIdx) to all
// members along a binomial tree and returns it everywhere.
func Bcast(p *cluster.Proc, g Group, rootIdx int, msg block.Message) block.Message {
	n := g.Size()
	i := g.Index(p.Rank())
	v := ((i-rootIdx)%n + n) % n
	cur := msg
	for mask := 1; mask < n; mask <<= 1 {
		if v < mask {
			if v+mask < n {
				p.Send(g.Ranks[(v+mask+rootIdx)%n], cur)
			}
		} else if v < 2*mask {
			cur = p.Recv(g.Ranks[(v-mask+rootIdx)%n])
		}
	}
	return cur
}
