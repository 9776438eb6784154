package encrypted

import (
	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// leaderAllgather exchanges the per-node bundles among the N leaders.
// The paper's analysis assumes recursive doubling, which we use whenever
// N is a power of two (keeping the Table II signatures exact). For other
// N, RD's remainder scheme re-sends the full result once more — a real
// penalty for large bundles — so, like MVAPICH's dispatcher, we fall
// back to the ring for bundles of 4KB or more.
func leaderAllgather(p *cluster.Proc, leaders Group, bundle block.Message) []block.Message {
	n := leaders.Size()
	// Dispatch on a value every leader computes identically (max block
	// size times ranks per node), so unequal all-gatherv bundles cannot
	// split the leaders across different algorithms.
	bundleBound := p.MaxBlockSize() * int64(p.Ell())
	if n&(n-1) == 0 || bundleBound < 4096 {
		return collective.RD(p, leaders, bundle)
	}
	return collective.Ring(p, leaders, bundle)
}

// Shared-memory key helpers; -1 marks an unused index.
type shmKey = cluster.ShmKey

func keyOwn(rank int) shmKey     { return shmKey{Kind: "hs/own", Node: -1, Index: rank} }
func keyOwnCT(rank int) shmKey   { return shmKey{Kind: "hs/ownct", Node: -1, Index: rank} }
func keyNodeCT(node int) shmKey  { return shmKey{Kind: "hs/nodect", Node: node, Index: -1} }
func keyNodePT(node int) shmKey  { return shmKey{Kind: "hs/nodept", Node: node, Index: -1} }
func keyPT(node, idx int) shmKey { return shmKey{Kind: "hs/pt", Node: node, Index: idx} }

// copyOut charges the final staging from the shared-memory plaintext
// buffer into the user buffer (HS step 4): a single bulk copy under block
// mapping, but p separate re-ordering copies otherwise — the exact
// overhead the paper blames for HS1/HS2's drop under cyclic mapping.
func copyOut(p *cluster.Proc, _ int64) {
	if p.Spec().Mapping == cluster.BlockMapping {
		var total int64
		for r := 0; r < p.P(); r++ {
			total += p.BlockSize(r)
		}
		p.CopyCharge(total)
		return
	}
	for r := 0; r < p.P(); r++ {
		p.CopyCharge(p.BlockSize(r))
	}
}

// HS1 is the first Hierarchical Shared-memory algorithm:
//
//  1. every rank publishes its plaintext block in the node's shared
//     segment (a local copy);
//  2. each leader seals its node's l*m bytes as ONE ciphertext and the N
//     leaders all-gather the ciphertexts (recursive doubling, forwarding
//     ciphertexts unmodified);
//  3. all l ranks of a node jointly decrypt the N-1 foreign ciphertexts,
//     round-robin, so each decrypts only ceil((N-1)/l) of them;
//  4. every rank copies the assembled plaintext to its user buffer.
//
// r_d = ceil((N-1)/l) — the smallest of all algorithms — which makes HS1
// the small-message favourite.
func HS1() cluster.Algorithm { return hs1(true) }

// HS1SoloDecrypt is an ablation variant of HS1 in which the leader alone
// decrypts all N-1 foreign ciphertexts instead of spreading them over the
// node's l ranks. It quantifies how much of HS1's win comes from joint
// decryption (DESIGN.md, ablation "joint-decrypt").
func HS1SoloDecrypt() cluster.Algorithm { return hs1(false) }

func hs1(joint bool) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		requireSingleBlock(mine)
		spec := p.Spec()
		m := mine.PlainLen()
		myNode := p.Node()
		nodeRanks := spec.RanksOnNode(myNode)

		// Step 1: stage the plaintext block into shared memory.
		p.CopyCharge(m)
		p.ShmPut(keyOwn(p.Rank()), mine)
		p.NodeBarrier()

		// Step 2: leaders seal and exchange.
		if p.IsLeader() {
			var nodeChunks []block.Chunk
			for _, r := range nodeRanks {
				nodeChunks = append(nodeChunks, p.ShmGet(keyOwn(r)).Chunks...)
			}
			ct := p.Encrypt(nodeChunks...)
			leaders := Group{Ranks: spec.Leaders()}
			parts := leaderAllgather(p, leaders, block.Message{Chunks: []block.Chunk{ct}})
			for node, msg := range parts {
				p.ShmPut(keyNodeCT(node), msg)
			}
		}
		p.NodeBarrier()

		// Step 3: joint decryption of the N-1 foreign node ciphertexts
		// (or leader-only decryption in the ablation variant).
		li := spec.LocalIndex(p.Rank())
		l := spec.Ell()
		slot := 0
		for node := 0; node < spec.N; node++ {
			if node == myNode {
				continue
			}
			mineToOpen := slot%l == li
			if !joint {
				mineToOpen = p.IsLeader()
			}
			if mineToOpen {
				pt := p.DecryptAll(p.ShmGet(keyNodeCT(node)))
				p.ShmPut(keyNodePT(node), pt)
			}
			slot++
		}
		p.NodeBarrier()

		// Step 4: assemble and copy out.
		var all []block.Message
		for _, r := range nodeRanks {
			all = append(all, p.ShmGet(keyOwn(r)))
		}
		for node := 0; node < spec.N; node++ {
			if node != myNode {
				all = append(all, p.ShmGet(keyNodePT(node)))
			}
		}
		copyOut(p, m)
		return block.AssembleByOrigin(all...)
	}
}

// HS2 is the variant that moves sealing off the leader: every rank seals
// its own m-byte block (s_e = m instead of l*m), leaders all-gather the
// l*N individual ciphertexts, and the node jointly opens the (N-1)*l
// foreign ones — r_d = N-1 but optimal s_e, making HS2 the large-message
// favourite.
func HS2() cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		requireSingleBlock(mine)
		spec := p.Spec()
		m := mine.PlainLen()
		myNode := p.Node()
		nodeRanks := spec.RanksOnNode(myNode)

		// Step 1: seal own block, publish ciphertext (for the leader) and
		// plaintext (for intra-node use) in shared memory.
		ct := p.Encrypt(mine.Chunks...)
		p.CopyCharge(ct.WireLen())
		p.ShmPut(keyOwnCT(p.Rank()), block.Message{Chunks: []block.Chunk{ct}})
		p.CopyCharge(m)
		p.ShmPut(keyOwn(p.Rank()), mine)
		p.NodeBarrier()

		// Step 2: leaders all-gather the per-rank ciphertext bundles.
		if p.IsLeader() {
			bundle := block.Message{Chunks: make([]block.Chunk, 0, len(nodeRanks))}
			for _, r := range nodeRanks {
				bundle.Append(p.ShmGet(keyOwnCT(r)).Chunks...)
			}
			leaders := Group{Ranks: spec.Leaders()}
			parts := leaderAllgather(p, leaders, bundle)
			for node, msg := range parts {
				p.ShmPut(keyNodeCT(node), msg)
			}
		}
		p.NodeBarrier()

		// Step 3: jointly open the (N-1)*l foreign ciphertexts,
		// round-robin by node-local index: N-1 ciphertexts of m bytes per
		// rank.
		li := spec.LocalIndex(p.Rank())
		l := spec.Ell()
		slot := 0
		for node := 0; node < spec.N; node++ {
			if node == myNode {
				continue
			}
			cts := p.ShmGet(keyNodeCT(node))
			for idx, c := range cts.Chunks {
				if slot%l == li {
					pt := c
					if c.Enc {
						pt = p.Decrypt(c)
					}
					p.ShmPut(keyPT(node, idx), block.Message{Chunks: []block.Chunk{pt}})
				}
				slot++
			}
		}
		p.NodeBarrier()

		// Step 4: assemble and copy out.
		var all []block.Message
		for _, r := range nodeRanks {
			all = append(all, p.ShmGet(keyOwn(r)))
		}
		for node := 0; node < spec.N; node++ {
			if node == myNode {
				continue
			}
			cts := p.ShmGet(keyNodeCT(node))
			for idx := range cts.Chunks {
				all = append(all, p.ShmGet(keyPT(node, idx)))
			}
		}
		copyOut(p, m)
		return block.AssembleByOrigin(all...)
	}
}
