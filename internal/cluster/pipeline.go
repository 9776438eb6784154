// Intra-collective pipelining: the tcp engine can overlap crypto with
// transport inside one operation by streaming a chunk's sealed segments
// onto the wire one at a time (internal/seal's SealStream/OpenStream,
// internal/wire's segment sub-frames). A multi-chunk message becomes one
// envelope sequence interleaving a per-chunk segment stream for every
// qualifying sealed chunk, plus inline sub-frames for the chunks too
// small to stream; the receiver assembles the chunks back into the
// message in order. This file holds the pieces the TCP link builds on:
// the streaming threshold, the per-message send plan, and the
// receive-side message and stream assembly with the op's in-flight
// stream table.
package cluster

import (
	"sync"

	"encag/internal/block"
	"encag/internal/seal"
)

// defaultMinStreamBytes is the smallest chunk plaintext worth
// streaming; below it the fixed per-sub-frame overhead outweighs the
// overlap. The threshold is compared against the chunk's plaintext
// length (block header sum), never the sealed blob length, so the
// qualification does not drift with seal framing overhead.
const defaultMinStreamBytes = 16 << 10

// chunkSend is one chunk's entry in a send plan: either a segment
// stream (stream non-nil; chunk carries the metadata) or an inline
// chunk shipped whole in a single sub-frame.
type chunkSend struct {
	stream *seal.SealStream
	chunk  block.Chunk
}

// sendPlan is a message's pipelined send schedule: every chunk in
// order, each either streamed segment-by-segment or sent inline.
type sendPlan struct {
	chunks  []chunkSend
	streams int    // chunks with a non-nil stream
	sid     uint32 // per-operation stream id, stamped by isend
}

// streamsForSend builds msg's pipelined send plan, or returns nil when
// the message should travel the legacy whole-frame path. Each sealed
// chunk qualifies for streaming if it carries a pending SealStream from
// Encrypt, or is a forwarded segmented blob whose plaintext is at least
// defaultMinStreamBytes and that splits into ≥2 segments along its recorded
// boundaries; every other chunk — plaintext, small, or unsplittable —
// ships inline inside the same envelope sequence. A plan with zero
// streams is pointless, so nil is returned and the caller materializes.
func (o *opRuntime) streamsForSend(msg block.Message) *sendPlan {
	if !o.pipe || len(msg.Chunks) == 0 {
		return nil
	}
	plan := &sendPlan{chunks: make([]chunkSend, len(msg.Chunks))}
	for i, c := range msg.Chunks {
		plan.chunks[i] = chunkSend{chunk: c}
		if !c.Enc {
			continue
		}
		if c.Stream != nil {
			plan.chunks[i].stream = c.Stream
			plan.streams++
			continue
		}
		if c.Payload == nil || c.PlainLen() < defaultMinStreamBytes {
			continue
		}
		st, err := seal.StreamFromBlob(c.Payload)
		if err != nil || st.K() < 2 {
			continue
		}
		plan.chunks[i].stream = st
		plan.streams++
	}
	if plan.streams == 0 {
		return nil
	}
	return plan
}

// streamBlob indirects SealStream.Blob so the materialize error-path
// regression test can inject a failure (the seal layer's only organic
// Blob error is nonce-source exhaustion, which a test cannot trigger);
// production code never overrides it.
var streamBlob = (*seal.SealStream).Blob

// materializeMessage forces any lazily-sealed chunk to its blob form so
// the message can travel the non-streaming paths (whole-message frames,
// shared memory, local delivery). The chunk slice is copied only when a
// pending stream is actually present. On error the returned message is
// zero: a mid-loop Blob failure leaves the pending streams in an
// unusable sealed state, so neither the half-materialized copy nor the
// original may be shipped — callers must treat the error as fatal for
// the message.
func materializeMessage(msg block.Message) (block.Message, error) {
	for i, c := range msg.Chunks {
		if c.Stream == nil {
			continue
		}
		out := msg
		out.Chunks = append([]block.Chunk(nil), msg.Chunks...)
		for j := i; j < len(out.Chunks); j++ {
			cj := &out.Chunks[j]
			if cj.Stream == nil {
				continue
			}
			blob, err := streamBlob(cj.Stream)
			if err != nil {
				return block.Message{}, err
			}
			cj.Payload = blob
			cj.Stream = nil
		}
		return out, nil
	}
	return msg, nil
}

// streamKey identifies one in-flight receive message on the TCP demux:
// stream ids are allocated per operation, so the (src, dst, id) triple
// is unique among its live pipelined messages; the chunk index in each
// sub-frame selects the per-chunk stream within the message.
type streamKey struct {
	src, dst int
	id       uint32
}

// streamTable tracks the in-flight pipelined messages the TCP demux is
// assembling for one operation; the readers of all the op's pairs share
// it. The zero value is an empty table.
type streamTable struct {
	mu sync.Mutex
	m  map[streamKey]*msgRecv
}

func (t *streamTable) get(k streamKey) *msgRecv {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *streamTable) put(k streamKey, mr *msgRecv) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[streamKey]*msgRecv)
	}
	t.m[k] = mr
	t.mu.Unlock()
}

func (t *streamTable) drop(k streamKey) {
	t.mu.Lock()
	delete(t.m, k)
	t.mu.Unlock()
}

// msgRecv assembles one incoming pipelined message: chunks arrive as
// per-chunk segment streams and inline sub-frames, in any interleaving
// the sender chose, and are slotted by chunk index. When every chunk is
// filled the whole message is delivered; the first failure on any chunk
// fails the message exactly once. A msgRecv and its streams belong to
// the reader goroutine of their src->dst pair (the pair's readers run
// one after another), so they need no lock.
type msgRecv struct {
	deliver func(block.Message)
	fail    func(error)

	chunks    []block.Chunk
	filled    []bool
	remaining int
	streams   map[uint32]*streamRecv
	failed    bool
}

// addStream registers a per-chunk receive stream. It reports false for
// an out-of-range chunk index, a chunk already filled, or a chunk that
// already has a live stream — all protocol violations, since the
// sequence gates dedup transport-level resends.
func (mr *msgRecv) addStream(ci uint32, sr *streamRecv) bool {
	if int(ci) >= len(mr.chunks) || mr.filled[ci] {
		return false
	}
	if _, ok := mr.streams[ci]; ok {
		return false
	}
	mr.streams[ci] = sr
	return true
}

// setChunk fills chunk ci, delivering the assembled message when it was
// the last one outstanding. It reports false for an out-of-range index
// or a duplicate fill (protocol violations); fills after a failure are
// absorbed silently so a later sibling chunk cannot resurrect a failed
// message.
func (mr *msgRecv) setChunk(ci uint32, c block.Chunk) bool {
	if mr.failed {
		return true
	}
	if int(ci) >= len(mr.chunks) || mr.filled[ci] {
		return false
	}
	mr.chunks[ci] = c
	mr.filled[ci] = true
	delete(mr.streams, ci)
	mr.remaining--
	if mr.remaining == 0 {
		mr.deliver(block.Message{Chunks: mr.chunks})
	}
	return true
}

// failOnce invokes the failure hook exactly once, no matter how many of
// the message's chunk streams fail.
func (mr *msgRecv) failOnce(err error) {
	if mr.failed {
		return
	}
	mr.failed = true
	mr.fail(err)
}

// streamRecv assembles one incoming per-chunk segment stream: the
// transport fills segment slots as sub-frames land and calls accept,
// which opens (authenticates + decrypts) each segment right there on the
// reader goroutine — so the reader stops reading while it opens, which
// backpressures the sender through TCP flow control. The first
// authentication failure fails the whole stream closed; once every
// segment has opened, the assembled chunk — blob and pre-opened
// plaintext — is delivered.
type streamRecv struct {
	os      *seal.OpenStream
	blocks  []block.Block
	tag     int
	lm      *liveMetrics
	deliver func(block.Chunk)
	fail    func(error)

	seen   []bool
	done   int
	failed bool
}

func newStreamRecv(os *seal.OpenStream, blocks []block.Block, tag int,
	lm *liveMetrics, deliver func(block.Chunk), fail func(error)) *streamRecv {
	return &streamRecv{
		os:      os,
		blocks:  blocks,
		tag:     tag,
		lm:      lm,
		deliver: deliver,
		fail:    fail,
		seen:    make([]bool, os.K()),
	}
}

// markSeen records segment i's arrival, reporting whether it is a
// duplicate (a protocol violation: the sequence gates already dedup
// transport-level resends).
func (sr *streamRecv) markSeen(i int) (dup bool) {
	if sr.seen[i] {
		return true
	}
	sr.seen[i] = true
	return false
}

// accept opens the filled segment i. The caller must have fully filled
// SegmentSlot(i) first; markSeen ensures each slot is accepted once.
func (sr *streamRecv) accept(i int) {
	if sr.failed {
		return
	}
	sr.lm.pipeInlineOpens.Inc()
	if err := sr.os.OpenSegment(i); err != nil {
		sr.failed = true
		sr.fail(err)
		return
	}
	sr.done++
	if sr.done < sr.os.K() {
		return
	}
	sr.lm.pipeStreamSegments.Observe(int64(sr.os.K()))
	sr.deliver(block.Chunk{
		Enc:     true,
		Blocks:  sr.blocks,
		Tag:     sr.tag,
		Payload: sr.os.Blob(),
		Opened:  sr.os.Plaintext(),
	})
}
