// Package wire is the network serialization used by the TCP transport
// engine: a length-delimited binary framing for block.Message values
// (encoding/binary, big-endian), plus the hello frame that identifies a
// connecting rank.
//
// Frame layout:
//
//	uint32 magic "EAGM"
//	uint32 source rank
//	uint64 sequence number (per-connection, monotone; lets a receiver
//	       discard duplicate frames resent after a reconnect)
//	uint32 operation id (which collective of a persistent session the
//	       frame belongs to; the receiver demultiplexes each frame to
//	       the in-flight operation carrying that id and discards frames
//	       whose operation has retired)
//	uint32 chunk count
//	per chunk:
//	  uint8  flags (bit0: encrypted)
//	  int32  tag
//	  uint32 block count
//	  per block: uint32 origin, uint64 length
//	  uint32 payload length, payload bytes
//
// The codec is defensive: it never allocates more than MaxFrame bytes
// on the say-so of an untrusted length field, and every format
// rejection wraps ErrBadFrame so transports can tell corruption from
// connection lifecycle errors with errors.Is; a stream that ends
// mid-frame is io.ErrUnexpectedEOF, never ErrBadFrame.
//
// A link keeps one FrameWriter per sending connection and one
// FrameReader per receiving one. The writer encodes a header into a
// reusable buffer and flushes header and payload as one write. The
// reader takes a header in fixed-width groups — the magic/src/seq/op
// prefix, the sub-frame's fixed fields, each chunk's flags/tag/count,
// each block entry — one io.ReadFull each into reusable scratch, and
// buffers nothing itself: the TCP link reads through a bufio.Reader, so
// a frame costs one read(2) in the steady state. WriteFrame, ReadFrame
// and ReadFrameStart are one-shot wrappers over the two.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"encag/internal/block"
)

// ErrBadFrame is wrapped by every frame-format rejection (bad magic,
// absurd counts, oversized length fields): errors.Is(err, ErrBadFrame)
// distinguishes a corrupted byte stream from an I/O failure. A frame a
// decoder cannot parse is rejected with a structured error — it is
// never delivered, and the bytes after it are unreachable (stream
// framing is lost), so corruption can cost frames but never misroute
// one.
var ErrBadFrame = errors.New("wire: malformed frame")

const (
	magic = 0x4541474D // "EAGM"
	// MaxFrame bounds a single message frame (1 GiB).
	MaxFrame = 1 << 30
	// MaxChunk bounds a single chunk payload (256 MiB). A corrupt or
	// hostile length prefix is rejected before any allocation happens,
	// so one bad frame can never demand a near-MaxFrame buffer.
	MaxChunk = 256 << 20
	// maxCount bounds chunk/block counts per frame.
	maxCount = 1 << 20
)

// WriteFrame encodes and writes one frame carrying an explicit sequence
// number and operation id. Senders number the frames of each directed
// connection monotonically so that a frame resent after a transient
// failure (reconnect + hello re-handshake) is recognized as a duplicate
// by the receiver and dropped instead of delivered twice. A persistent
// session stamps every frame with the id of the collective it belongs
// to, so a receiver can demultiplex the interleaved frames of
// concurrent operations on one long-lived connection and discard frames
// that straggle in from a retired (possibly aborted) operation. It uses
// a one-shot FrameWriter.
func WriteFrame(w io.Writer, src int, op uint32, seq uint64, msg block.Message) error {
	return NewFrameWriter().WriteMsg(w, src, op, seq, msg)
}

// ReadFrame reads and decodes one message frame including its sequence
// number and operation id, with a one-shot FrameReader; a segment
// sub-frame is rejected. Any uint32 is a valid id — routing (or
// dropping) the frame by id is the transport's job, and a frame no live
// operation claims is simply dropped: readable or rejected, never
// misrouted.
func ReadFrame(r io.Reader) (src int, op uint32, seq uint64, msg block.Message, err error) {
	f, err := NewFrameReader(r).Next()
	if err == nil && f.Kind != FrameMsg {
		err = fmt.Errorf("%w: bad magic %#x", ErrBadFrame, segFrameMagic)
	}
	if err != nil {
		return 0, 0, 0, block.Message{}, err
	}
	return f.Src, f.Op, f.Seq, f.Msg, nil
}

// WriteHello identifies a dialing rank to the accepting side.
func WriteHello(w io.Writer, rank int) error {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:], magic)
	binary.BigEndian.PutUint32(buf[4:], uint32(rank))
	_, err := w.Write(buf[:])
	return err
}

// ReadHello reads the dialing rank.
func ReadHello(r io.Reader) (int, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != magic {
		return 0, fmt.Errorf("%w: bad hello magic", ErrBadFrame)
	}
	return int(binary.BigEndian.Uint32(buf[4:])), nil
}
