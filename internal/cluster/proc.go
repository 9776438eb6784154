package cluster

import (
	"fmt"
	"slices"
	"strings"

	"encag/internal/block"
	"encag/internal/seal"
)

// Request is a handle for a non-blocking operation, completed by Wait.
type Request interface{ isRequest() }

// engine abstracts the execution backend (opRuntime's real goroutines
// or discrete-event simulation) behind the rank-level API.
type engine interface {
	// isend starts a send of msg; st, when non-nil, is the pending seal
	// of msg's one chunk, which the engine seals as the chunk goes out,
	// and relay says dst forwards that chunk on sealed.
	isend(p *Proc, dst int, msg block.Message, st *seal.SealStream, relay bool) Request
	irecv(p *Proc, src int) Request
	// wait completes one request: the received message for a receive,
	// an empty one for a send.
	wait(p *Proc, req Request) block.Message

	// span opens a compute-phase interval (encrypt, decrypt or copy) of n
	// bytes and returns its closer, called when the work is done. The sim
	// engine charges the modelled cost up front and returns a no-op; the
	// op runtime measures the wall-clock interval and emits a TraceEvent
	// when a tracer is attached.
	span(p *Proc, kind TraceKind, n int64) func()

	shmPut(p *Proc, key ShmKey, msg block.Message)
	shmGet(p *Proc, key ShmKey) (block.Message, bool)
	nodeBarrier(p *Proc)

	sealer() *seal.Sealer // nil in sim mode

	// alloc draws the n-byte buffer a sealed blob is written into. The op
	// runtime takes it from the process-wide ciphertext free list and
	// hands it back when the operation has succeeded and nothing can touch
	// it any more (see opBufs).
	alloc(n int) []byte

	// pipeline reports whether intra-collective segment streaming is on:
	// TCP sessions with pipelining enabled only (the sim and chan
	// engines never stream). SealIsend then leaves a large chunk bound
	// for another node to the send loop, which seals it segment by
	// segment as it writes it to the socket; every other ciphertext is
	// sealed whole and travels as one frame.
	pipeline() bool

	// aad appends to dst a ciphertext's AEAD associated data: its block
	// header and, on the op runtime, the operation id, so a frame misrouted
	// to a concurrent operation under the same session key fails closed.
	aad(dst []byte, blocks []block.Block) []byte
}

// Algorithm is an all-gather implementation: given a rank handle and the
// rank's own contribution, it returns the gathered result (all p blocks,
// fully decrypted). The result must outlive the rank's arena, which
// holds mine's lists: an all-gather returns what Proc.Assemble returns.
type Algorithm func(p *Proc, mine block.Message) block.Message

// Proc is the per-rank handle the algorithms program against — the moral
// equivalent of an MPI communicator plus rank. It seals a ciphertext one
// of two ways: Encrypt, whole, for one the rank keeps, forwards or sends
// more than once, and SealIsend for one it seals only to send once.
//
// Its arena holds the rank's contribution, Encrypt's block lists,
// SealIsend's and DecryptAll's chunk lists and what an algorithm draws
// with Chunks, Ints and Messages, for one operation. The rank's slot
// keeps it and resets it as it retires: a warm rank draws without
// allocating, and an idle one pins no payload.
type Proc struct {
	rank      int
	spec      Spec
	lay       *layout
	met       *Metrics
	eng       engine
	sizes     []int64 // per-rank contribution sizes (all-gatherv semantics)
	plainMode bool
	ar        arena
	out       results // the operation's result storage (see Assemble)

	// Rank-owned scratch: a blocking exchange's Wait result, the
	// associated data, which the sealer copies if it keeps it, and the
	// payload slices a whole seal gathers from. aadBuf and parts outlive
	// the op on the rank's slot.
	msgs   [2]block.Message
	aadBuf []byte
	parts  [][]byte
}

// retire clears what the last op left on a slot's Proc, keeping its
// rank, layout, arena slabs and scratch buffers, so that an idle slot
// pins no payload.
func (p *Proc) retire() {
	clear(p.parts[:cap(p.parts)])
	p.ar.reset()
	*p = Proc{rank: p.rank, spec: p.spec, lay: p.lay, ar: p.ar, aadBuf: p.aadBuf[:0], parts: p.parts[:0]}
}

// contribution draws the rank's own single-block message from its
// arena; payload is nil in sim mode.
func (p *Proc) contribution(payload []byte, size int64) block.Message {
	b := append(p.ar.blocks.take(1), block.Block{Origin: p.rank, Len: size})
	return block.Message{Chunks: append(p.Chunks(1), block.Chunk{Blocks: b, Payload: payload})}
}

// Chunks draws an empty chunk list with room for n from the rank's
// arena, zeroed up to n. It is the caller's until the operation ends;
// appending past n copies it to the heap.
func (p *Proc) Chunks(n int) []block.Chunk { return p.ar.chunks.take(n) }

// Ints is Chunks for an index list, which is not zeroed: append to it.
func (p *Proc) Ints(n int) []int { return p.ar.ints.take(n) }

// Messages is Chunks for a message list, a collective's member-indexed
// working set: reslice it to n for n empty messages.
func (p *Proc) Messages(n int) []block.Message { return p.ar.messages.take(n) }

// Grow returns list with room for n more chunks: list itself if it has
// it, else a copy in a larger arena draw.
func (p *Proc) Grow(list []block.Chunk, n int) []block.Chunk {
	if cap(list)-len(list) >= n {
		return list
	}
	return append(p.Chunks(max(2*cap(list), len(list)+n)), list...)
}

// World, NodeRanks, Leaders and Column return rank lists built once per
// session and shared, to read, never to write: every rank; a node's
// ranks; each node's leader; and the ranks at this rank's node-local
// index, one per node by node (the Concurrent algorithms' groups).
func (p *Proc) World() []int             { return p.lay.world }
func (p *Proc) NodeRanks(node int) []int { return p.lay.nodes[node] }
func (p *Proc) Leaders() []int           { return p.lay.leaders }
func (p *Proc) Column() []int            { return p.lay.columns[p.spec.LocalIndex(p.rank)] }

// Assemble lays fully-plaintext messages out as block.AssembleByOrigin
// does, one single-block chunk per origin in origin order, in storage
// the operation's result owns, not the arena, so the result outlives
// the operation. An algorithm calls it once, for what it returns.
func (p *Proc) Assemble(parts ...block.Message) block.Message {
	n := p.spec.P
	out := block.AssembleByOrigin(p.out.chunks[p.rank*n:p.rank*n:(p.rank+1)*n], parts...).Chunks
	for i, c := range out {
		if o := c.Blocks[0].Origin; o >= 0 && o < n && c.Blocks[0] == p.out.blocks[o] {
			out[i].Blocks = p.out.blocks[o : o+1 : o+1]
		} else {
			out[i].Blocks = slices.Clone(c.Blocks) // not this op's block: validation names it
		}
	}
	return block.Message{Chunks: out}
}

// BlockSize returns the contribution length of a rank. Like
// MPI_Allgatherv's recvcounts argument, the sizes of all ranks are known
// everywhere.
func (p *Proc) BlockSize(rank int) int64 { return p.sizes[rank] }

// MaxBlockSize returns the largest contribution among the given ranks
// (all ranks when none are given) — the value size-dispatching
// collectives key on, so every rank picks the same algorithm.
func (p *Proc) MaxBlockSize(ranks ...int) int64 {
	var max int64
	if len(ranks) == 0 {
		for _, s := range p.sizes {
			if s > max {
				max = s
			}
		}
		return max
	}
	for _, r := range ranks {
		if s := p.sizes[r]; s > max {
			max = s
		}
	}
	return max
}

// SetPlaintextMode turns Encrypt/Decrypt into free no-ops, so running an
// encrypted algorithm yields its *unencrypted counterpart* — the curves
// the paper plots in Figures 5 and 6. Plain wraps an algorithm with it.
func (p *Proc) SetPlaintextMode(on bool) { p.plainMode = on }

// Plain derives the unencrypted counterpart of an encrypted algorithm:
// identical communication structure, no cryptography.
func Plain(alg Algorithm) Algorithm {
	return func(p *Proc, mine block.Message) block.Message {
		p.SetPlaintextMode(true)
		return alg(p, mine)
	}
}

// Rank returns this process's rank in [0, P).
func (p *Proc) Rank() int { return p.rank }

// Spec returns the world layout.
func (p *Proc) Spec() Spec { return p.spec }

// P returns the number of ranks.
func (p *Proc) P() int { return p.spec.P }

// N returns the number of nodes.
func (p *Proc) N() int { return p.spec.N }

// Ell returns ranks per node.
func (p *Proc) Ell() int { return p.spec.Ell() }

// Node returns the node hosting this rank.
func (p *Proc) Node() int { return p.spec.NodeOf(p.rank) }

// SameNode reports whether ranks a and b share a node.
func (p *Proc) SameNode(a, b int) bool { return p.spec.SameNode(a, b) }

// Leader returns the leader rank of this rank's node.
func (p *Proc) Leader() int { return p.spec.Leader(p.Node()) }

// IsLeader reports whether this rank leads its node.
func (p *Proc) IsLeader() bool { return p.rank == p.Leader() }

// Metrics returns this rank's cost counters.
func (p *Proc) Metrics() *Metrics { return p.met }

// Isend starts a non-blocking send of msg to dst. Byte and message
// counters are charged immediately; the communication round is charged
// by the Wait that completes the operation. Every engine sends through
// here, so this is where the paper's security property is checked: a
// message to another node that carries a plaintext chunk is counted in
// PlainInterMsgs and described in Violations.
func (p *Proc) Isend(dst int, msg block.Message) Request { return p.isend(dst, msg, nil, false) }

// isend is Isend of a message whose one chunk is still to be sealed
// when st is non-nil, relayed on by dst when relay is set.
func (p *Proc) isend(dst int, msg block.Message, st *seal.SealStream, relay bool) Request {
	if dst == p.rank {
		panic(fmt.Sprintf("cluster: rank %d sending to itself", p.rank))
	}
	if p.eng.pipeline() {
		p.checkSealed(msg)
	}
	n := msg.WireLen()
	p.met.BytesSent += n
	if p.SameNode(p.rank, dst) {
		p.met.IntraBytesSent += n
		p.met.IntraMsgs++
	} else {
		p.met.InterBytesSent += n
		p.met.InterMsgs++
		p.checkInterNode(dst, msg)
	}
	return p.eng.isend(p, dst, msg, st, relay)
}

// checkSealed panics on a ciphertext chunk msg cannot carry: one the
// transport opened in place as it landed, which kept no sealed bytes
// because its sender sealed it for this rank alone (SealIsend without
// relay).
func (p *Proc) checkSealed(msg block.Message) {
	for _, c := range msg.Chunks {
		if c.Enc && c.Payload == nil && c.Opened != nil {
			panic(fmt.Sprintf("cluster: rank %d forwarding a chunk it opened in place: its sender did not seal it for a relay", p.rank))
		}
	}
}

// checkInterNode records msg, bound for another node, as a violation if
// any of its chunks is plaintext with bytes in it. It allocates only
// when it records one.
func (p *Proc) checkInterNode(dst int, msg block.Message) {
	for _, c := range msg.Chunks {
		if !c.Enc && c.PlainLen() > 0 {
			p.met.PlainInterMsgs++
			if len(p.met.Violations) < MaxViolations {
				p.met.Violations = append(p.met.Violations,
					fmt.Sprintf("plaintext chunk (%d bytes) sent %d -> %d across nodes", c.PlainLen(), p.rank, dst))
			}
			return
		}
	}
}

// Irecv starts a non-blocking receive from src.
func (p *Proc) Irecv(src int) Request {
	if src == p.rank {
		panic(fmt.Sprintf("cluster: rank %d receiving from itself", p.rank))
	}
	return p.eng.irecv(p, src)
}

// Wait completes the given requests and counts one communication round.
// The returned slice is aligned with reqs; entries for sends are empty
// messages, entries for receives hold the received message. For up to
// two requests it is rank-owned scratch, valid until the next Wait.
func (p *Proc) Wait(reqs ...Request) []block.Message {
	if len(reqs) == 0 {
		return nil
	}
	p.met.CommRounds++
	msgs := slices.Grow(p.msgs[:0], len(reqs))[:len(reqs)]
	for i, r := range reqs {
		msgs[i] = p.eng.wait(p, r)
		p.met.BytesRecv += msgs[i].WireLen()
	}
	return msgs
}

// Send is a blocking send (Isend+Wait): one communication round.
func (p *Proc) Send(dst int, msg block.Message) {
	p.Wait(p.Isend(dst, msg))
}

// Recv is a blocking receive (Irecv+Wait): one communication round.
func (p *Proc) Recv(src int) block.Message {
	return p.Wait(p.Irecv(src))[0]
}

// SendRecv sends out to dst while receiving from src; the two transfers
// overlap and together count as one communication round, like
// MPI_Sendrecv.
func (p *Proc) SendRecv(dst int, out block.Message, src int) block.Message {
	return p.Wait(p.Isend(dst, out), p.Irecv(src))[1]
}

// gatherPayloads concatenates the chunks' payloads into one buffer —
// the plaintext-merge used by plain-mode Encrypt. The encrypted path
// avoids this copy entirely: the sealer gathers the payload slices
// directly into the output blob.
func gatherPayloads(chunks []block.Chunk, plainLen int64) []byte {
	pt := make([]byte, 0, plainLen)
	for _, c := range chunks {
		pt = append(pt, c.Payload...)
	}
	return pt
}

// payloadSlices appends the chunks' payload slices to parts for the
// sealer's zero-copy gather, panicking on any chunk without real bytes.
func payloadSlices(parts [][]byte, chunks []block.Chunk) [][]byte {
	for _, c := range chunks {
		if c.Payload == nil {
			panic("cluster: real-mode Encrypt given a chunk without payload")
		}
		parts = append(parts, c.Payload)
	}
	return parts
}

// Encrypt seals the given plaintext chunks into a single ciphertext
// chunk: one encryption round covering their total plaintext bytes. All
// input chunks must be plaintext. In the real engines the seal is
// segmented — payloads at or above the configured segment size are split
// into independently sealed GCM segments processed concurrently on the
// crypto worker pool, authenticated together as one unit — but a logical
// Encrypt still counts as a single encryption round (the paper's r_e);
// the fan-out is reported separately in Metrics.EncSegments. The chunk
// is always sealed whole, into the op's ciphertext buffers, so it may be
// sent any number of times, forwarded and decrypted locally; a chunk
// sealed only to be sent once goes through SealIsend instead.
func (p *Proc) Encrypt(chunks ...block.Chunk) block.Chunk {
	c, _ := p.encrypt(chunks, false)
	return c
}

// SealIsend seals the given plaintext chunks into one ciphertext chunk,
// charged exactly as Encrypt charges it, and starts that chunk's one
// send to dst, which either opens it or, when relay is set, forwards it
// on sealed (and may open it too). Where sealing can overlap the wire (a
// pipelined session, dst on another node, a chunk of at least
// defaultMinStreamBytes) the chunk is left to the send loop, which seals
// each segment straight into the buffer it writes it from, right before
// it goes out, so the encrypt span closes at once and the crypto cost
// shows up overlapped with transport. dst then opens each segment in the
// plaintext buffer it lands in and keeps no ciphertext, unless it relays
// the chunk. Everywhere else the chunk is sealed whole here, as Encrypt
// seals it. A ciphertext the sender itself sends more than once is
// sealed once, by Encrypt.
func (p *Proc) SealIsend(dst int, relay bool, chunks ...block.Chunk) Request {
	c, st := p.encrypt(chunks, p.eng.pipeline() && !p.SameNode(p.rank, dst))
	return p.isend(dst, block.Message{Chunks: append(p.Chunks(1), c)}, st, relay)
}

// encrypt is Encrypt, leaving a chunk that qualifies to a seal stream
// when stream is set: the chunk comes back without a payload, beside
// the stream that seals it.
func (p *Proc) encrypt(chunks []block.Chunk, stream bool) (block.Chunk, *seal.SealStream) {
	blocks := p.ar.blocks.take(block.Message{Chunks: chunks}.NumBlocks())
	var plainLen int64
	for _, c := range chunks {
		if c.Enc {
			panic("cluster: Encrypt given an already-encrypted chunk")
		}
		blocks = append(blocks, c.Blocks...)
		plainLen += c.PlainLen()
	}
	if p.plainMode {
		// Unencrypted-counterpart mode: merge without sealing or cost.
		out := block.Chunk{Blocks: blocks}
		if len(chunks) > 0 {
			out.Tag = chunks[0].Tag
		}
		if p.eng.sealer() != nil {
			out.Payload = gatherPayloads(chunks, plainLen)
		}
		return out, nil
	}
	p.met.EncRounds++
	p.met.EncBytes += plainLen
	done := p.eng.span(p, TraceEncrypt, plainLen)
	out := block.Chunk{Enc: true, Blocks: blocks}
	var st *seal.SealStream
	if s := p.eng.sealer(); s != nil {
		p.aadBuf = p.eng.aad(p.aadBuf[:0], blocks)
		if stream && plainLen >= defaultMinStreamBytes {
			// A stream keeps its slices until its last segment is sealed.
			st = s.NewSealStream(payloadSlices(make([][]byte, 0, len(chunks)), chunks), p.aadBuf)
		}
		if st != nil {
			p.met.EncSegments += st.K()
		} else {
			// A whole seal is done with its slices when it returns: they
			// are the rank's scratch, cleared when the rank's slot retires.
			p.parts = payloadSlices(p.parts[:0], chunks)
			blob, segs := s.SealSegmentedWith(p.eng.alloc, p.parts, p.aadBuf)
			p.met.EncSegments += segs
			out.Payload = blob
		}
	}
	done()
	return out, st
}

// Decrypt opens one ciphertext chunk (one decryption round covering its
// plaintext bytes) and returns the plaintext chunk. Multi-segment blobs
// are verified and decrypted concurrently; all segments must
// authenticate or the whole open fails.
func (p *Proc) Decrypt(c block.Chunk) block.Chunk {
	if !c.Enc {
		panic("cluster: Decrypt given a plaintext chunk")
	}
	n := c.PlainLen()
	p.met.DecRounds++
	p.met.DecBytes += n
	done := p.eng.span(p, TraceDecrypt, n)
	out := block.Chunk{Blocks: c.Blocks}
	if s := p.eng.sealer(); s != nil {
		if c.Opened != nil {
			// The transport already authenticated and decrypted this
			// chunk segment-by-segment as it landed, under the identical
			// per-segment AAD construction; a second GCM pass would only
			// re-verify bytes that cannot have changed since. The
			// decrypt round is still charged here — the work simply
			// happened overlapped with transport — for the segments the
			// sender's stream plan cut (it kept no blob when opened in
			// place).
			p.met.DecSegments += s.StreamSegments(int64(len(c.Opened)))
			out.Payload = c.Opened
			done()
			return out
		}
		if c.Payload == nil {
			panic("cluster: real-mode Decrypt given a chunk without payload")
		}
		p.aadBuf = p.eng.aad(p.aadBuf[:0], c.Blocks)
		pt, segs, err := s.OpenSegmented(c.Payload, p.aadBuf)
		if err != nil {
			// Structured: the run reports this rank and the failing open
			// (tampered or spliced ciphertext) as the root cause.
			panic(&RankError{Rank: p.rank, Peer: -1, Op: "open", Err: err})
		}
		p.met.DecSegments += segs
		out.Payload = pt
	}
	done()
	return out
}

// DecryptAll decrypts every encrypted chunk of msg in place order and
// returns the fully-plaintext message, its chunk list drawn from the
// rank's arena. Plaintext chunks pass through.
func (p *Proc) DecryptAll(msg block.Message) block.Message {
	out := block.Message{Chunks: p.Chunks(len(msg.Chunks))}
	for _, c := range msg.Chunks {
		if c.Enc {
			out.Append(p.Decrypt(c))
		} else {
			out.Append(c)
		}
	}
	return out
}

// CopyCharge accounts one local memory copy of n bytes (e.g. staging
// through a shared-memory buffer, or the p re-order copies HS algorithms
// need under non-block mappings).
func (p *Proc) CopyCharge(n int64) {
	p.met.Copies++
	p.met.CopyBytes += n
	p.eng.span(p, TraceCopy, n)()
}

// ShmKey names a message in a node's shared-memory segment: a kind and
// up to two indices, -1 when unused.
type ShmKey struct {
	Kind        string
	Node, Index int
}

// String renders the key as kind/node/index without the unused indices.
func (k ShmKey) String() string {
	return strings.ReplaceAll(fmt.Sprintf("%s/%d/%d", k.Kind, k.Node, k.Index), "/-1", "")
}

// ShmPut publishes msg under key in this node's shared-memory segment.
// Synchronize with NodeBarrier before readers call ShmGet.
func (p *Proc) ShmPut(key ShmKey, msg block.Message) {
	p.eng.shmPut(p, key, msg)
}

// ShmGet reads a message published on this node's segment. It panics if
// the key is absent — a missing barrier is an algorithm bug.
func (p *Proc) ShmGet(key ShmKey) block.Message {
	msg, ok := p.eng.shmGet(p, key)
	if !ok {
		panic(fmt.Sprintf("cluster: rank %d: shm key %q not present (missing NodeBarrier?)", p.rank, key))
	}
	return msg
}

// NodeBarrier blocks until every rank of this node has arrived.
func (p *Proc) NodeBarrier() {
	p.eng.nodeBarrier(p)
}
