// Intra-collective pipelining: on a TCP session with pipelining on, a
// chunk Proc.SealIsend seals for one send to another node (a socket
// pair) travels as its sealed segments, one segment sub-frame each
// (internal/wire): the sending rank's send loop seals each segment into
// its one segment buffer right before it goes on the wire, and the
// receiver opens each as it lands, in the plaintext buffer it lands in.
// A chunk its receiver relays on sealed (the stream's first sub-frame
// carries the wire's relay flag) lands in a blob drawn from the op's
// ciphertext buffers instead, each segment opening from there into the
// plaintext, and the relay sends the blob on whole. Every other message
// is sealed whole and sent as one frame. This file holds the streaming
// threshold and the receive-side stream assembly.
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

// streamRecv assembles one incoming pipelined message: the segments of
// its one sealed chunk. A stream's sub-frames arrive back to back and in
// index order on their pair — one sender goroutine writes them, the
// accept loop chains the pair's readers, and the sequence gate drops
// resends — so it accepts only the next index. Each segment is read
// straight into its slot and opened there on the reader goroutine: in
// the chunk's plaintext buffer, or, for a relayed stream, in the blob
// the relay forwards. The reader stops reading while it opens, which
// backpressures the sender through TCP flow control. It belongs to its
// pair's readers, which run one after another, so it needs no lock.
type streamRecv struct {
	id     uint32 // the sender's stream id
	os     *seal.OpenStream
	blob   []byte // the sealed chunk a relayed stream keeps; nil when opened in place
	blocks []block.Block
	tag    int
}

// newStreamRecv starts the stream a first sub-frame announces: the open
// stream (its plaintext allocated once) built from the seal header its
// metadata carries, under the op's AAD for the chunk's blocks, which is
// built in the pair arena a's scratch (the stream copies it). A relayed
// stream also keeps its sealed bytes, in a blob from the op's ciphertext
// buffers.
func newStreamRecv(o *opRuntime, a *recvArena, sf wire.SegFrame) (*streamRecv, error) {
	a.aad = o.aad(a.aad[:0], sf.Meta.Blocks)
	os, err := o.slr.NewOpenStream(sf.Meta.Header, a.aad)
	if err != nil {
		return nil, err
	}
	sr := &streamRecv{id: sf.Stream, os: os, blocks: sf.Meta.Blocks, tag: sf.Meta.Tag}
	if sf.Meta.Relay {
		sr.blob = o.alloc(os.SealedLen())
		os.KeepSealed(sr.blob)
	}
	return sr, nil
}

// slot returns where sub-frame sf's payload goes: the next segment's
// nonce and ciphertext||tag slots. A sub-frame of another stream, any
// other index or count, or a payload of the wrong length is a protocol
// violation.
func (sr *streamRecv) slot(sf wire.SegFrame) (nonce, body []byte, err error) {
	next := sr.os.Next()
	if sf.Stream != sr.id || int(sf.Index) != next || int(sf.Count) != sr.os.K() {
		return nil, nil, fmt.Errorf("stream %d expects segment %d of %d, got stream %d segment %d of %d",
			sr.id, next, sr.os.K(), sf.Stream, sf.Index, sf.Count)
	}
	if n := sr.os.SegmentLen(next); sf.PayloadLen != n {
		return nil, nil, fmt.Errorf("stream %d segment %d is %d bytes, want %d", sr.id, next, sf.PayloadLen, n)
	}
	nonce, body = sr.os.Slot()
	return nonce, body, nil
}

// open authenticates and decrypts the segment just read into its slot.
// After the last one it returns the assembled chunk — its opened
// plaintext, and a relayed stream's blob — with done set.
func (sr *streamRecv) open() (c block.Chunk, done bool, err error) {
	if err := sr.os.OpenNext(); err != nil {
		return block.Chunk{}, false, err
	}
	if sr.os.Next() < sr.os.K() {
		return block.Chunk{}, false, nil
	}
	return block.Chunk{Enc: true, Blocks: sr.blocks, Tag: sr.tag, Payload: sr.blob, Opened: sr.os.Plaintext()}, true, nil
}
