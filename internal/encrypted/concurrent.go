package encrypted

import (
	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// concurrentGroup returns the sub-all-gather group of the calling rank:
// the ranks occupying the same node-local position as it, one per node,
// ordered by node. The partition is mapping-aware ("each node has exactly
// one process per group"), so the Concurrent algorithms behave the same
// under block, cyclic or custom mappings.
func concurrentGroup(p *cluster.Proc) Group {
	spec := p.Spec()
	li := spec.LocalIndex(p.Rank())
	g := Group{Ranks: make([]int, spec.N)}
	for r := 0; r < spec.P; r++ {
		if spec.LocalIndex(r) == li {
			g.Ranks[spec.NodeOf(r)] = r
		}
	}
	return g
}

// concurrent implements the Concurrent family: l concurrent encrypted
// sub-all-gathers (one per node-local position) bring every node's data
// to every node with only (N-1)m bytes decrypted per process — the lower
// bound — followed by an ordinary unencrypted all-gather inside each
// node. The l concurrent inter-node streams also drive the NIC far
// better than any single process could.
func concurrent(sub func(*cluster.Proc, Group, block.Message) []block.Message,
	local collective.Allgather) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		// Step 1: encrypted sub-all-gather among one process per node.
		g := concurrentGroup(p)
		contribution := block.Concat(sub(p, g, mine)...)
		// Step 2: ordinary all-gather of the N-block bundles inside the
		// node — pure intra-node plaintext traffic.
		nodeGroup := Group{Ranks: p.Spec().RanksOnNode(p.Node())}
		parts := local(p, nodeGroup, contribution)
		return block.AssembleByOrigin(parts...)
	}
}

// CRing is the Concurrent algorithm with O-Ring sub-all-gathers and a
// ring for the local phase: r_c = N+l-2, s_d = (N-1)m. Fully oblivious
// to the process mapping.
func CRing() cluster.Algorithm {
	return concurrent(ORing, collective.Ring)
}

// CRD is the Concurrent algorithm with O-RD sub-all-gathers and
// recursive doubling for the local phase: r_c = lg(p), s_d = (N-1)m.
func CRD() cluster.Algorithm {
	return concurrent(ORD, collective.RD)
}
