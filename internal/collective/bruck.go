package collective

import (
	"fmt"

	"encag/internal/block"
	"encag/internal/cluster"
)

// Bruck is the Bruck (dissemination) all-gather: ceil(lg n) rounds for
// any group size. In round k, member i sends its first min(2^k, n-2^k)
// contributions (in its local rotated order) to member i-2^k and receives
// the corresponding contributions from i+2^k. The rotated order means
// position j of member i's list holds the contribution of member
// (i+j) mod n.
func Bruck(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	n := g.Size()
	i := g.Index(p.Rank())
	list := append(p.Messages(n), tagged(p, mine, i))
	held := p.Messages(n)[:n]
	for k := 1; k < n; k <<= 1 {
		cnt := k
		if n-k < cnt {
			cnt = n - k
		}
		dst := g.Ranks[((i-k)%n+n)%n]
		src := g.Ranks[(i+k)%n]
		in := p.SendRecv(dst, concat(p, list[:cnt]), src)
		clear(held)
		mergeByTag(held, in)
		// The incoming contributions are those of members i+k .. i+k+cnt-1.
		for j := 0; j < cnt; j++ {
			member := (i + k + j) % n
			m := held[member]
			if len(m.Chunks) == 0 {
				panic(fmt.Sprintf("collective: bruck round k=%d missing contribution of member %d", k, member))
			}
			list = append(list, m)
		}
	}
	res := p.Messages(n)[:n]
	for j, m := range list {
		res[(i+j)%n] = m
	}
	return res
}
