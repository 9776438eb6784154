// Package encrypted implements the paper's encrypted all-gather
// algorithms (Section IV): the Naive baseline, the Opportunistic family
// (O-Ring, O-RD, O-RD2), the Concurrent family (C-Ring, C-RD) and the
// Hierarchical Shared-memory family (HS1, HS2). All work for any p and N
// with balanced placement, under any process mapping, in both execution
// engines.
//
// Security invariant shared by every algorithm here: data crosses a node
// boundary only inside an authenticated AES-GCM ciphertext; intra-node
// traffic may be plaintext. Every engine checks the invariant on every
// send (cluster.Proc.Isend counts PlainInterMsgs), the simulator included.
package encrypted

import (
	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// Naive is the approach of prior work (Naser et al. [18]): every process
// encrypts its own block, an ordinary all-gather moves the ciphertexts
// everywhere — including between processes that share a node — and every
// process decrypts the p-1 ciphertexts it received. It meets the lower
// bounds for communication and encryption but pays r_d = p-1 and
// s_d = (p-1)m in decryption, which is what the faster algorithms attack.
func Naive(base collective.Allgather) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		ct := p.Encrypt(mine.Chunks...)
		parts := base(p, collective.World(p.P()), block.Message{Chunks: []block.Chunk{ct}})
		me := p.Rank()
		plain := make([]block.Message, 0, len(parts))
		for idx, msg := range parts {
			if idx == me {
				// Our own block never needs decryption: we have the
				// plaintext locally.
				plain = append(plain, mine)
				continue
			}
			plain = append(plain, p.DecryptAll(msg))
		}
		return block.AssembleByOrigin(plain...)
	}
}
