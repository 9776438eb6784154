// Segment sub-frames: the pipelined transport ships one message as a
// run of sub-frames — each streamed chunk travels as the sealed
// segments of its segmented blob, one segment per sub-frame, and each
// small chunk travels inline as a single sub-frame — so sealing,
// transport and opening overlap inside a single collective step while
// the receiver reassembles the chunks, in order, into the original
// multi-chunk message.
//
// Sub-frame layout:
//
//	uint32 magic "EAGP"
//	uint32 source rank
//	uint64 sequence number (same per-connection monotone space as
//	       message frames: each sub-frame takes its own number, so the
//	       receiver's duplicate gate works unchanged across resends)
//	uint32 operation id
//	uint32 stream id (allocated per pipelined message send;
//	       distinguishes concurrent pipelined messages between one rank
//	       pair within an operation)
//	uint32 chunk index (position of this sub-frame's chunk in the
//	       message; per-chunk segment streams of one message interleave
//	       with its inline chunks under a single stream id)
//	uint32 segment index
//	uint32 segment count
//	uint8  flags
//	       bit0: chunk metadata present — set on each chunk's first
//	             sub-frame: int32 chunk tag, length-prefixed encoded
//	             block header, length-prefixed segmented-seal framing
//	             header (empty for inline chunks)
//	       bit1: message metadata present — set on the message's first
//	             sub-frame: uint32 total chunk count, so the receiver
//	             can size the assembly before anything else arrives
//	       bit2: inline chunk — the payload is the chunk's whole
//	             materialized payload (segment index 0 of count 1)
//	       bit3: the inline chunk is encrypted (a sealed blob); only
//	             valid with bit2
//	uint32 payload length, payload bytes (one sealed segment
//	       nonce || ciphertext || tag, or an inline chunk's payload)
//
// FrameReader.Next deliberately stops before the payload: the transport
// reads the payload bytes straight into the receive stream's in-blob
// segment slot, so an arriving segment costs no staging copy.
package wire

import "encag/internal/block"

const (
	segFrameMagic = 0x45414750 // "EAGP"
	// maxSegMeta bounds the first-sub-frame metadata (block header +
	// segment header) a reader will allocate; generous next to the
	// maxCount bounds that already apply to both headers.
	maxSegMeta = 1 << 24

	// Sub-frame flag bits.
	flagChunkMeta = 1 << 0 // chunk metadata section present
	flagMsgMeta   = 1 << 1 // message metadata (total chunk count) present
	flagInline    = 1 << 2 // payload is a whole materialized chunk
	flagInlineEnc = 1 << 3 // the inline chunk is a sealed blob
	flagsKnown    = flagChunkMeta | flagMsgMeta | flagInline | flagInlineEnc
)

// SegMeta is the chunk-level metadata carried by each chunk's first
// sub-frame: everything the receiver needs to allocate the chunk's
// stream and reconstruct the chunk (and its AAD) before any payload
// arrives. Inline chunks carry it too, with an empty seal Header.
type SegMeta struct {
	Tag    int
	Blocks []block.Block
	Header []byte // segmented-seal framing header; empty for inline chunks
}

// SegFrame is one segment sub-frame. On the write side Payload holds
// the sealed segment (or the inline chunk's payload); on the read side
// Payload is nil and PayloadLen says how many bytes the caller must
// consume from the stream.
type SegFrame struct {
	Stream uint32 // pipelined-message stream id
	Chunk  uint32 // chunk index within the message
	Index  uint32 // segment index within the chunk
	Count  uint32 // segment count of the chunk
	// MsgChunks is the message's total chunk count, carried by the
	// message's first sub-frame only; 0 means absent (a message always
	// has at least one chunk).
	MsgChunks uint32
	// Inline marks a sub-frame whose payload is a whole materialized
	// chunk rather than one sealed segment; Enc says whether that
	// inline chunk is a sealed blob.
	Inline     bool
	Enc        bool
	Meta       *SegMeta
	Payload    []byte
	PayloadLen int
}
