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
// connection lifecycle errors with errors.Is.
package wire

import (
	"bufio"
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
// that straggle in from a retired (possibly aborted) operation.
func WriteFrame(w io.Writer, src int, op uint32, seq uint64, msg block.Message) error {
	bw := bufio.NewWriter(w)
	if err := writeMsgBody(bw, src, op, seq, msg); err != nil {
		return err
	}
	return bw.Flush()
}

// writeMsgBody encodes one message frame into bw (no flush).
func writeMsgBody(bw *bufio.Writer, src int, op uint32, seq uint64, msg block.Message) error {
	if err := writeU32(bw, magic); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(src)); err != nil {
		return err
	}
	if err := writeU64(bw, seq); err != nil {
		return err
	}
	if err := writeU32(bw, op); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(msg.Chunks))); err != nil {
		return err
	}
	for _, c := range msg.Chunks {
		if len(c.Payload) > MaxChunk {
			return fmt.Errorf("wire: chunk payload of %d bytes exceeds %d", len(c.Payload), MaxChunk)
		}
		var flags byte
		if c.Enc {
			flags |= 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(int32(c.Tag))); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(len(c.Blocks))); err != nil {
			return err
		}
		for _, b := range c.Blocks {
			if err := writeU32(bw, uint32(b.Origin)); err != nil {
				return err
			}
			if err := writeU64(bw, uint64(b.Len)); err != nil {
				return err
			}
		}
		if err := writeU32(bw, uint32(len(c.Payload))); err != nil {
			return err
		}
		if _, err := bw.Write(c.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads and decodes one frame including its sequence number
// and operation id. Any uint32 is a valid id — routing (or dropping)
// the frame by id is the transport's job, and a frame no live
// operation claims is simply dropped: readable or rejected, never
// misrouted.
func ReadFrame(r io.Reader) (src int, op uint32, seq uint64, msg block.Message, err error) {
	var m uint32
	if m, err = readU32(r); err != nil {
		return 0, 0, 0, msg, err
	}
	if m != magic {
		return 0, 0, 0, msg, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, m)
	}
	return readMsgBody(r)
}

// readMsgBody decodes a message frame after its magic has been
// consumed.
func readMsgBody(r io.Reader) (src int, op uint32, seq uint64, msg block.Message, err error) {
	s, err := readU32(r)
	if err != nil {
		return 0, 0, 0, msg, err
	}
	src = int(s)
	if seq, err = readU64(r); err != nil {
		return 0, 0, 0, msg, err
	}
	if op, err = readU32(r); err != nil {
		return 0, 0, 0, msg, err
	}
	nChunks, err := readU32(r)
	if err != nil {
		return 0, 0, 0, msg, err
	}
	if nChunks > maxCount {
		return 0, 0, 0, msg, fmt.Errorf("%w: %d chunks exceeds limit", ErrBadFrame, nChunks)
	}
	var total uint64
	msg.Chunks = make([]block.Chunk, 0, nChunks)
	for i := uint32(0); i < nChunks; i++ {
		var c block.Chunk
		var flags [1]byte
		if _, err := io.ReadFull(r, flags[:]); err != nil {
			return 0, 0, 0, msg, err
		}
		c.Enc = flags[0]&1 != 0
		tag, err := readU32(r)
		if err != nil {
			return 0, 0, 0, msg, err
		}
		c.Tag = int(int32(tag))
		nBlocks, err := readU32(r)
		if err != nil {
			return 0, 0, 0, msg, err
		}
		if nBlocks > maxCount {
			return 0, 0, 0, msg, fmt.Errorf("%w: %d blocks exceeds limit", ErrBadFrame, nBlocks)
		}
		c.Blocks = make([]block.Block, nBlocks)
		for j := range c.Blocks {
			o, err := readU32(r)
			if err != nil {
				return 0, 0, 0, msg, err
			}
			l, err := readU64(r)
			if err != nil {
				return 0, 0, 0, msg, err
			}
			c.Blocks[j] = block.Block{Origin: int(o), Len: int64(l)}
		}
		plen, err := readU32(r)
		if err != nil {
			return 0, 0, 0, msg, err
		}
		if plen > MaxChunk {
			return 0, 0, 0, msg, fmt.Errorf("%w: chunk payload of %d bytes exceeds %d", ErrBadFrame, plen, MaxChunk)
		}
		total += uint64(plen)
		if total > MaxFrame {
			return 0, 0, 0, msg, fmt.Errorf("%w: frame exceeds %d bytes", ErrBadFrame, MaxFrame)
		}
		c.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, c.Payload); err != nil {
			return 0, 0, 0, msg, err
		}
		msg.Chunks = append(msg.Chunks, c)
	}
	return src, op, seq, msg, nil
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

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}
