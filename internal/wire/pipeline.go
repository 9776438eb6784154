// Segment sub-frames: the pipelined transport ships a chunk sealed for
// its one send as the sealed segments of its segmented blob, one
// segment per sub-frame, so sealing, transport and opening overlap
// inside a single collective step. Every other message travels as one
// whole message frame.
//
// Sub-frame layout:
//
//	uint32 magic "EAGP"
//	uint32 source rank
//	uint64 sequence number (same per-connection monotone space as
//	       message frames: each sub-frame takes its own number, so the
//	       receiver's duplicate gate works unchanged across resends)
//	uint32 operation id
//	uint32 stream id (allocated per pipelined message send)
//	uint32 segment index
//	uint32 segment count
//	uint8  flags
//	       bit0: chunk metadata present — set on the stream's first
//	             sub-frame: int32 chunk tag, length-prefixed encoded
//	             block header, length-prefixed segmented-seal framing
//	             header
//	       bit1: relay — the receiver forwards the sealed chunk on
//	             unopened, so it keeps the sealed segments; only on a
//	             first sub-frame, beside bit0
//	uint32 payload length, payload bytes (one sealed segment
//	       nonce || ciphertext || tag)
//
// FrameReader.ReadSeg deliberately stops before the payload: the transport
// reads each segment's nonce and ciphertext||tag straight to where the
// receive stream opens it (the plaintext buffer, or a relayed stream's
// blob), so an arriving segment costs no staging copy.
package wire

import "encag/internal/block"

const (
	segFrameMagic = 0x45414750 // "EAGP"
	// maxSegMeta bounds the first-sub-frame metadata (block header +
	// segment header) a reader will allocate; generous next to the
	// maxCount bounds that already apply to both headers.
	maxSegMeta = 1 << 24

	// flagChunkMeta marks a first sub-frame: chunk metadata present.
	flagChunkMeta = 1 << 0
	// flagRelay marks a first sub-frame whose stream the receiver relays.
	flagRelay = 1 << 1
)

// SegMeta is the chunk-level metadata carried by a stream's first
// sub-frame: everything the receiver needs to allocate the stream and
// reconstruct the chunk (and its AAD) before any payload arrives.
type SegMeta struct {
	Tag    int
	Blocks []block.Block
	Header []byte // segmented-seal framing header
	// Relay says the receiver forwards the sealed chunk on unopened, so
	// it must keep the sealed segments (flag bit 1).
	Relay bool
}

// SegFrame is one segment sub-frame. On the write side Payload holds
// the sealed segment; on the read side Payload is nil and PayloadLen
// says how many bytes the caller must consume from the stream.
type SegFrame struct {
	Stream     uint32 // pipelined-message stream id
	Index      uint32 // segment index within the stream
	Count      uint32 // segment count of the stream
	Meta       *SegMeta
	Payload    []byte
	PayloadLen int
}
