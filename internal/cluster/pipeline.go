// Intra-collective pipelining: on a TCP session with pipelining on, a
// message to another node (a socket pair) that is exactly one freshly
// sealed chunk — the pending SealStream Proc.Encrypt made — travels as
// the sealed segments of its blob, one segment sub-frame each
// (internal/wire), each sealed right before it goes on the wire and
// opened as it lands. Every other message is materialized and sent as
// one whole frame. This file holds the streaming threshold,
// materialization, and the receive-side stream assembly.
package cluster

import (
	"fmt"

	"encag/internal/block"
	"encag/internal/seal"
	"encag/internal/wire"
)

// defaultMinStreamBytes is the smallest chunk plaintext worth
// streaming; below it the fixed per-sub-frame overhead outweighs the
// overlap. The threshold is compared against the chunk's plaintext
// length (block header sum), never the sealed blob length, so the
// qualification does not drift with seal framing overhead.
const defaultMinStreamBytes = 16 << 10

// streamed reports whether msg travels src->dst as a segment stream: a
// pipelined op's message to another node (a socket pair: pipelining is
// on only on EngineTCP) that is one chunk with a pending SealStream. A
// memory pair has no wire to overlap the sealing with.
func (o *opRuntime) streamed(src, dst int, msg block.Message) bool {
	return o.pipe && !o.spec.SameNode(src, dst) && len(msg.Chunks) == 1 && msg.Chunks[0].Stream != nil
}

// materializeMessage forces any lazily-sealed chunk to its blob form so
// the message can travel the non-streaming paths (whole-message frames,
// shared memory, local delivery). The chunk slice is copied only when a
// pending stream is actually present; the original message is left as
// it is.
func materializeMessage(msg block.Message) block.Message {
	for i, c := range msg.Chunks {
		if c.Stream == nil {
			continue
		}
		out := msg
		out.Chunks = append([]block.Chunk(nil), msg.Chunks...)
		for j := i; j < len(out.Chunks); j++ {
			if cj := &out.Chunks[j]; cj.Stream != nil {
				cj.Payload = cj.Stream.Blob()
				cj.Stream = nil
			}
		}
		return out
	}
	return msg
}

// streamRecv assembles one incoming pipelined message: the segments of
// its one sealed chunk. A stream's sub-frames arrive back to back and in
// index order on their pair — one sender goroutine writes them, the
// accept loop chains the pair's readers, and the sequence gate drops
// resends — so it accepts only the next index. Each segment is read
// straight into its in-blob slot and opened there on the reader
// goroutine, so the reader stops reading while it opens, which
// backpressures the sender through TCP flow control. It belongs to its
// pair's readers, which run one after another, so it needs no lock.
type streamRecv struct {
	id     uint32 // the sender's stream id
	os     *seal.OpenStream
	blocks []block.Block
	tag    int
	next   int // index of the next segment to arrive
}

// newStreamRecv starts the stream a first sub-frame announces: the open
// stream (blob and plaintext allocated once) built from the seal header
// its metadata carries, under the op's AAD for the chunk's blocks.
func newStreamRecv(o *opRuntime, sf wire.SegFrame) (*streamRecv, error) {
	os, err := o.slr.NewOpenStream(sf.Meta.Header, o.aad(nil, sf.Meta.Blocks))
	if err != nil {
		return nil, err
	}
	return &streamRecv{id: sf.Stream, os: os, blocks: sf.Meta.Blocks, tag: sf.Meta.Tag}, nil
}

// slot returns where sub-frame sf's payload goes: the next segment's
// in-blob slot. A sub-frame of another stream, any other index or count,
// or a payload of the wrong length is a protocol violation.
func (sr *streamRecv) slot(sf wire.SegFrame) ([]byte, error) {
	if sf.Stream != sr.id || int(sf.Index) != sr.next || int(sf.Count) != sr.os.K() {
		return nil, fmt.Errorf("stream %d expects segment %d of %d, got stream %d segment %d of %d",
			sr.id, sr.next, sr.os.K(), sf.Stream, sf.Index, sf.Count)
	}
	if n := sr.os.SegmentLen(sr.next); sf.PayloadLen != n {
		return nil, fmt.Errorf("stream %d segment %d is %d bytes, want %d", sr.id, sr.next, sf.PayloadLen, n)
	}
	return sr.os.SegmentSlot(sr.next), nil
}

// open authenticates and decrypts the segment just read into its slot.
// After the last one it returns the assembled chunk — blob and opened
// plaintext — with done set.
func (sr *streamRecv) open() (c block.Chunk, done bool, err error) {
	if err := sr.os.OpenSegment(sr.next); err != nil {
		return block.Chunk{}, false, err
	}
	if sr.next++; sr.next < sr.os.K() {
		return block.Chunk{}, false, nil
	}
	return block.Chunk{Enc: true, Blocks: sr.blocks, Tag: sr.tag, Payload: sr.os.Blob(), Opened: sr.os.Plaintext()}, true, nil
}
