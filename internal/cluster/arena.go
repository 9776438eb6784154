package cluster

import "encag/internal/block"

// slab is an append-only typed buffer: take hands out consecutive,
// capacity-capped runs of it, and nothing drawn is overwritten before
// reset. A run that does not fit is made on the heap and counted, and
// reset then replaces the slab with one that holds all the operation
// drew: the slab grows to what one operation draws.
type slab[T any] struct {
	buf   []T
	spilt int // entries drawn on the heap since the last reset
}

// take returns an empty list with room for n entries. Past its length
// it holds what an earlier operation left, zeroes in a chunk slab.
func (s *slab[T]) take(n int) []T {
	i := len(s.buf)
	if i+n > cap(s.buf) {
		s.spilt += n
		return make([]T, 0, n)
	}
	s.buf = s.buf[:i+n]
	return s.buf[i : i : i+n]
}

func (s *slab[T]) reset() {
	if s.spilt > 0 {
		s.buf, s.spilt = make([]T, 0, len(s.buf)+s.spilt), 0
	}
	s.buf = s.buf[:0]
}

// arena is a rank's per-operation scratch (see Proc). Nothing drawn is
// reused within the operation, so a same-node receiver holding a view
// of a sender's list stays correct until the operation ends, and reset
// frees all of it at once.
type arena struct {
	chunks   slab[block.Chunk]
	blocks   slab[block.Block]
	ints     slab[int]
	messages slab[block.Message]
}

// reset frees everything drawn. Only chunks and messages point, at
// payloads, so only they are cleared: an idle rank pins no payload.
func (a *arena) reset() {
	clear(a.chunks.buf)
	clear(a.messages.buf)
	a.chunks.reset()
	a.blocks.reset()
	a.ints.reset()
	a.messages.reset()
}

// recvArena is one socket pair's receive storage on a rank slot
// (rankSlot.recv): the pair's reader decodes each frame of the slot's op
// into it (a wire.MsgAlloc), lists from its slabs and encrypted payloads
// from the op's ciphertext buffers. Only the pair's readers, which run
// one after another, touch it, so it needs no lock; the reference the
// reader holds on the op keeps the slot from retiring under it. A
// reader's own recvArena, with no op, takes what it drops: stragglers
// and duplicates, their payloads straight from cipherBufs.
type recvArena struct {
	chunks slab[block.Chunk]
	blocks slab[block.Block]
	o      *opRuntime // the op being decoded into; nil for a reader's own
	aad    []byte     // a received stream's associated data (newStreamRecv)
}

func (a *recvArena) Chunks(n int) []block.Chunk { return a.chunks.take(n) }
func (a *recvArena) Blocks(n int) []block.Block { return a.blocks.take(n) }

func (a *recvArena) Cipher(n int) []byte {
	if a.o == nil {
		return cipherBufs.get(n)
	}
	return a.o.alloc(n)
}

// reset frees everything drawn, clearing the chunks, which point at
// payloads: an idle slot pins none.
func (a *recvArena) reset() {
	clear(a.chunks.buf)
	a.chunks.reset()
	a.blocks.reset()
}

// results is the storage an operation's assembled results live in,
// owned by the result: chunks[r*P:(r+1)*P] is rank r's layout, and
// blocks[o] is origin o's block, which every rank's chunk of o shares.
type results struct {
	chunks []block.Chunk
	blocks []block.Block
}

func newResults(sizes []int64) results {
	p := len(sizes)
	r := results{chunks: make([]block.Chunk, p*p), blocks: make([]block.Block, p)}
	for o, sz := range sizes {
		r.blocks[o] = block.Block{Origin: o, Len: sz}
	}
	return r
}

// layout is a spec's rank lists, built once per session and shared
// read-only: every rank, each node's leader, each node's ranks, and
// the ranks at each node-local index, one per node.
type layout struct {
	world, leaders []int
	nodes, columns [][]int
}

func newLayout(spec Spec) *layout {
	l := &layout{world: make([]int, spec.P), leaders: spec.Leaders(), nodes: make([][]int, spec.N), columns: make([][]int, spec.Ell())}
	for n := range l.nodes {
		l.nodes[n] = spec.RanksOnNode(n)
	}
	for i := range l.columns {
		l.columns[i] = make([]int, spec.N)
	}
	for r := range l.world {
		l.world[r] = r
		l.columns[spec.LocalIndex(r)][spec.NodeOf(r)] = r
	}
	return l
}
