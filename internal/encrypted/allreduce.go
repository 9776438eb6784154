package encrypted

import (
	"crypto/subtle"
	"fmt"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/collective"
)

// This file generalizes the paper's approach beyond all-gather, as its
// conclusion invites ("the unencrypted all-gather routines need to be
// updated..."): an encrypted ALL-REDUCE built from the same ingredients —
// intra-node work in shared memory, one process per node per slice on
// the wire, encryption only across node boundaries, and joint
// decryption.
//
// Combine is the reduction operator: it folds src into dst (equal
// lengths). It must be associative and commutative (like MPI_Op).
type Combine func(dst, src []byte)

// XOR is the simplest MPI_Op stand-in used by tests and examples. It
// panics if src is shorter than dst; dst and src may be the same slice,
// but must not overlap otherwise.
func XOR(dst, src []byte) {
	subtle.XORBytes(dst, dst, src[:len(dst)])
}

// sliceSpans cuts an m-byte vector into l contiguous spans.
func sliceSpans(m int64, l int) [][2]int64 {
	spans := make([][2]int64, l)
	base := m / int64(l)
	rem := m % int64(l)
	var off int64
	for j := 0; j < l; j++ {
		n := base
		if int64(j) < rem {
			n++
		}
		spans[j] = [2]int64{off, off + n}
		off += n
	}
	return spans
}

// sliceChunk extracts span j of a rank's vector as a slice-indexed
// chunk: Origin identifies the SLICE (not a rank), so the block
// machinery (audit, sizes, sim mode) keeps working. The payload is a
// capacity-capped view of the vector, read and never written: a peer's
// vector in shared memory, or the caller's own.
func sliceChunk(mine block.Message, spans [][2]int64, j int) block.Chunk {
	c := mine.Chunks[0]
	lo, hi := spans[j][0], spans[j][1]
	out := block.Chunk{Blocks: []block.Block{{Origin: j, Len: hi - lo}}}
	if c.Payload != nil {
		out.Payload = c.Payload[lo:hi:hi]
	}
	return out
}

// ownChunk is sc with a private copy of its payload: the partial a rank
// folds into. make (not append to nil) so a zero-length span still
// yields a non-nil payload: nil means "sim mode" elsewhere.
func ownChunk(sc block.Chunk) block.Chunk {
	if sc.Payload != nil {
		sc.Payload = append(make([]byte, 0, len(sc.Payload)), sc.Payload...)
	}
	return sc
}

// combineChunks folds src into dst in real mode, in place: dst is always
// the rank's private partial, never sealed yet. In sim mode it only
// checks shape. Both must carry the same slice block.
func combineChunks(dst, src block.Chunk, op Combine) block.Chunk {
	if len(dst.Blocks) != 1 || len(src.Blocks) != 1 ||
		dst.Blocks[0] != src.Blocks[0] {
		panic(fmt.Sprintf("encrypted: combining mismatched slices %+v vs %+v", dst.Blocks, src.Blocks))
	}
	if dst.Payload != nil && src.Payload != nil {
		op(dst.Payload, src.Payload)
	}
	return dst
}

// AllreduceHS is the hierarchical encrypted all-reduce:
//
//  1. intra-node: every rank publishes its vector in shared memory; rank
//     with node-local index j combines slice j of all l local vectors —
//     an l-way parallel local reduction producing the node partial,
//     distributed across the node's ranks;
//  2. inter-node, l concurrent slice groups (one rank per node each):
//     binomial-tree reduce of the slice partial toward the group's first
//     member — each hop moves one ciphertext, is opened, combined,
//     re-sealed — followed by a binomial broadcast of the sealed result,
//     each node opening it once;
//  3. intra-node: ranks publish their final slices; everyone assembles
//     the reduced vector from shared memory.
//
// Per rank the cryptographic work is O(lg N * m/l) bytes — versus the
// naive route's (p-1)m — carrying the paper's decryption economics over
// to a reduction collective.
func AllreduceHS(op Combine) func(p *cluster.Proc, mine block.Message) block.Message {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		requireSingleBlock(mine)
		spec := p.Spec()
		l := spec.Ell()
		m := mine.PlainLen()
		spans := sliceSpans(m, l)
		li := spec.LocalIndex(p.Rank())
		nodeRanks := p.NodeRanks(p.Node())

		// Step 1: publish own vector, locally reduce slice li.
		p.CopyCharge(m)
		p.ShmPut(keyOwn(p.Rank()), mine)
		p.NodeBarrier()
		var partial block.Chunk
		for i, r := range nodeRanks {
			sc := sliceChunk(p.ShmGet(keyOwn(r)), spans, li)
			if i == 0 {
				partial = ownChunk(sc)
			} else {
				partial = combineChunks(partial, sc, op)
				p.CopyCharge(sc.PlainLen()) // local combine pass
			}
		}

		// Step 2: encrypted reduce + broadcast within the slice group.
		g := Group{Ranks: p.Column()}
		n := g.Size()
		idx := g.Index(p.Rank())
		// Binomial reduce toward group index 0.
		for mask := 1; mask < n; mask <<= 1 {
			if idx&mask != 0 {
				// Sealed for this one send: the partial is handed off.
				p.Wait(p.SealIsend(g.Ranks[idx-mask], partial))
				partial = block.Chunk{}
				break
			}
			if idx+mask < n {
				peer := g.Ranks[idx+mask]
				in := p.Recv(peer)
				if len(in.Chunks) != 1 || !in.Chunks[0].Enc {
					panic("encrypted: allreduce expected one ciphertext")
				}
				partial = combineChunks(partial, p.Decrypt(in.Chunks[0]), op)
			}
		}
		// Binomial broadcast of the sealed result from group index 0,
		// forwarding the same ciphertext unmodified (each node opens it
		// once for its own use): sent more than once, it is sealed whole.
		var sealed block.Chunk
		if idx == 0 && n > 1 {
			sealed = p.Encrypt(partial)
		}
		for mask := 1; mask < n; mask <<= 1 {
			if idx < mask {
				if idx+mask < n {
					p.Send(g.Ranks[idx+mask], block.Message{Chunks: append(p.Chunks(1), sealed)})
				}
			} else if idx < 2*mask {
				in := p.Recv(g.Ranks[idx-mask])
				sealed = in.Chunks[0]
			}
		}
		final := partial
		if idx != 0 {
			final = p.Decrypt(sealed)
		}

		// Step 3: share final slices inside the node and assemble: the
		// result's chunks and blocks are its own, not the arena's.
		p.ShmPut(keyPT(p.Node(), li), block.Message{Chunks: append(p.Chunks(1), final)})
		p.NodeBarrier()
		out := block.Message{Chunks: make([]block.Chunk, l)}
		blocks := make([]block.Block, l)
		for j := range out.Chunks {
			c := p.ShmGet(keyPT(p.Node(), j)).Chunks[0]
			blocks[j] = c.Blocks[0]
			c.Blocks = blocks[j : j+1 : j+1]
			out.Chunks[j] = c
		}
		p.CopyCharge(m)
		return out
	}
}

// AllreduceNaive is the baseline: a Naive encrypted all-gather followed
// by a full local reduction at every rank — correct, but with the same
// (p-1)m decryption bill the paper's Table II shows for Naive, plus
// (p-1)m of local combining.
func AllreduceNaive(op Combine) func(p *cluster.Proc, mine block.Message) block.Message {
	gather := Naive(collective.MVAPICH(0))
	return func(p *cluster.Proc, mine block.Message) block.Message {
		all := gather(p, mine)
		spans := sliceSpans(mine.PlainLen(), 1)
		var acc block.Chunk
		first := true
		for _, c := range all.Chunks {
			// Re-key every gathered rank block as slice 0 so they
			// combine.
			sc := sliceChunk(block.Message{Chunks: []block.Chunk{c}}, spans, 0)
			if first {
				acc = ownChunk(sc)
				first = false
				continue
			}
			acc = combineChunks(acc, sc, op)
			p.CopyCharge(sc.PlainLen())
		}
		return block.Message{Chunks: []block.Chunk{acc}}
	}
}
