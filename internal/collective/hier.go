package collective

import (
	"fmt"

	"encag/internal/block"
	"encag/internal/cluster"
)

// Hierarchical is the leader-based all-gather of Traff [28] over the
// world group: (1) each node gathers its ranks' contributions at a leader
// over a binomial tree, (2) the N leaders run an inter-node all-gather
// (recursive doubling), and (3) each leader broadcasts the full result
// inside its node. Contributions must be the members' own single blocks
// (the standard world all-gather), since the final split keys on block
// origins.
func Hierarchical(p *cluster.Proc, g Group, mine block.Message) []block.Message {
	if g.Size() != p.P() {
		panic("collective: Hierarchical requires the world group")
	}
	spec := p.Spec()
	nodeGroup := Group{Ranks: spec.RanksOnNode(p.Node())}
	gathered := Gather(p, nodeGroup, 0, mine)

	var full block.Message
	if p.IsLeader() {
		leaders := Group{Ranks: spec.Leaders()}
		full = block.Concat(RD(p, leaders, block.Concat(gathered...))...)
	}
	full = Bcast(p, nodeGroup, 0, full)

	// Split the flat result back into per-rank contributions by origin.
	res := make([]block.Message, p.P())
	for _, c := range full.Chunks {
		if len(c.Blocks) != 1 {
			panic(fmt.Sprintf("collective: Hierarchical needs single-block contributions, got chunk with %d blocks", len(c.Blocks)))
		}
		origin := c.Blocks[0].Origin
		m := res[origin]
		m.Append(c)
		res[origin] = m
	}
	for r, m := range res {
		if len(m.Chunks) == 0 {
			panic(fmt.Sprintf("collective: Hierarchical result missing rank %d", r))
		}
	}
	return res
}
