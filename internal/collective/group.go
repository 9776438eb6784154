// Package collective implements the classic unencrypted all-gather
// algorithms the paper builds on (Section III): Ring and its rank-ordered
// variant, Recursive Doubling for any group size, Bruck, binomial
// gather/broadcast, the Hierarchical (leader-based) all-gather, and an
// MVAPICH-style size dispatcher (RD for small messages, Ring for large).
//
// Algorithms operate on a Group — an ordered set of world ranks, the
// moral equivalent of an MPI communicator — and move whole contributions
// (block.Message values). A contribution may be compound (several chunks,
// e.g. one ciphertext per node in the HS leader exchange); chunk tags
// keep track of which member contributed what, exactly like receive
// displacements do in a real MPI implementation.
package collective

import (
	"fmt"

	"encag/internal/block"
	"encag/internal/cluster"
)

// Group is an ordered set of world ranks.
type Group struct {
	Ranks []int
}

// World returns the group of all p ranks in rank order.
func World(p int) Group {
	g := Group{Ranks: make([]int, p)}
	for i := range g.Ranks {
		g.Ranks[i] = i
	}
	return g
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Ranks) }

// Index returns the position of a world rank in the group, or -1.
func (g Group) Index(rank int) int {
	for i, r := range g.Ranks {
		if r == rank {
			return i
		}
	}
	return -1
}

// Allgather is a group-level all-gather: every member contributes mine
// and receives the contribution of every member, indexed by group
// position.
type Allgather func(p *cluster.Proc, g Group, mine block.Message) []block.Message

// tagged copies msg's chunk list with every chunk tagged as contribution
// of member idx; payloads and block lists are shared.
func tagged(msg block.Message, idx int) block.Message {
	out := block.Message{Chunks: make([]block.Chunk, len(msg.Chunks))}
	for i, c := range msg.Chunks {
		c.Tag = idx
		out.Chunks[i] = c
	}
	return out
}

// newHeld is a member-indexed working set of n contributions holding
// only member i's own; a member is held once its message has chunks.
func newHeld(n, i int, mine block.Message) []block.Message {
	held := make([]block.Message, n)
	held[i] = tagged(mine, i)
	return held
}

// mergeByTag splits msg's chunks by their contribution tag and appends
// them (preserving order) into held. A run of chunks with one tag joins
// an empty entry as a capacity-capped view of msg's chunk list.
func mergeByTag(held []block.Message, msg block.Message) {
	cs := msg.Chunks
	for i := 0; i < len(cs); {
		j := i + 1
		for j < len(cs) && cs[j].Tag == cs[i].Tag {
			j++
		}
		if m := &held[cs[i].Tag]; len(m.Chunks) == 0 {
			m.Chunks = cs[i:j:j]
		} else {
			m.Chunks = append(m.Chunks, cs[i:j]...)
		}
		i = j
	}
}

// collectHeld returns held as the per-member result slice, verifying
// completeness.
func collectHeld(held []block.Message) []block.Message {
	for i, m := range held {
		if len(m.Chunks) == 0 {
			panic(fmt.Sprintf("collective: contribution of member %d missing at end of all-gather", i))
		}
	}
	return held
}

// AsAlgorithm adapts a group all-gather over the world group into a
// cluster.Algorithm whose result lists all contributions in rank order.
func AsAlgorithm(ag Allgather) cluster.Algorithm {
	return func(p *cluster.Proc, mine block.Message) block.Message {
		return block.Concat(ag(p, World(p.P()), mine)...)
	}
}
