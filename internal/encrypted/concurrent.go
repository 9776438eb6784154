package encrypted

import (
	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// concurrent implements the Concurrent family: l concurrent encrypted
// sub-all-gathers (one per node-local position) bring every node's data
// to every node with only (N-1)m bytes decrypted per process — the lower
// bound — followed by an ordinary unencrypted all-gather inside each
// node. The l concurrent inter-node streams also drive the NIC far
// better than any single process could.
//
// The sub-all-gather group is p.Column(): the ranks at the caller's
// node-local position, one per node, by node. The partition is
// mapping-aware ("each node has exactly one process per group"), so the
// Concurrent algorithms behave the same under block, cyclic or custom
// mappings.
func concurrent(sub groupAllgather, local collective.Allgather) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		// Step 1: encrypted sub-all-gather among one process per node.
		contribution := sub(p, Group{Ranks: p.Column()}, mine)
		// Step 2: ordinary all-gather of the N-block bundles inside the
		// node — pure intra-node plaintext traffic.
		parts := local(p, Group{Ranks: p.NodeRanks(p.Node())}, contribution)
		return p.Assemble(parts...)
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
