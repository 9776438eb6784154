package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"encag/internal/block"
)

var be = binary.BigEndian

// The fixed-width groups of a header, each read with one io.ReadFull.
const (
	prefixLen     = 20 // both kinds: magic, src, seq, op
	segFixedLen   = 13 // EAGP: stream, index, count, flags
	chunkFixedLen = 9  // EAGM, per chunk: flags, tag, block count
	blockLen      = 12 // EAGM, per block: origin, length
	segMetaLen    = 8  // EAGP chunk metadata: tag, block-header length
)

// frameWriteBuf is FrameWriter's write buffer: a frame of up to this
// many bytes (header included) leaves in one write(2); a larger one
// fills the buffer once and writes the rest of its payload directly.
const frameWriteBuf = 8 << 10

// FrameWriter writes frames through a reusable buffered writer and
// header buffer, so a long-lived link's steady-state sends allocate
// nothing. Not safe for concurrent use: each sender goroutine owns its
// links' writer.
type FrameWriter struct {
	bw  *bufio.Writer
	hdr []byte // header encode buffer, grown to the largest header seen
}

// NewFrameWriter returns a writer with empty reusable buffers.
func NewFrameWriter() *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriterSize(io.Discard, frameWriteBuf), hdr: make([]byte, 0, 64)}
}

func appendPrefix(b []byte, m uint32, src int, seq uint64, op uint32) []byte {
	b = be.AppendUint32(b, m)
	b = be.AppendUint32(b, uint32(src))
	b = be.AppendUint64(b, seq)
	return be.AppendUint32(b, op)
}

// WriteMsg encodes and writes one message frame to w, reusing the
// internal buffers. Semantics match WriteFrame. Write errors are not
// checked field by field: bufio.Writer keeps the first one and Flush
// returns it.
func (fw *FrameWriter) WriteMsg(w io.Writer, src int, op uint32, seq uint64, msg block.Message) error {
	for _, c := range msg.Chunks {
		if len(c.Payload) > MaxChunk {
			return fmt.Errorf("wire: chunk payload of %d bytes exceeds %d", len(c.Payload), MaxChunk)
		}
	}
	bw := fw.bw
	bw.Reset(w)
	b := appendPrefix(fw.hdr[:0], magic, src, seq, op)
	b = be.AppendUint32(b, uint32(len(msg.Chunks)))
	for _, c := range msg.Chunks {
		var flags byte
		if c.Enc {
			flags = 1
		}
		b = append(b, flags)
		b = be.AppendUint32(b, uint32(int32(c.Tag)))
		b = be.AppendUint32(b, uint32(len(c.Blocks)))
		for _, blk := range c.Blocks {
			b = be.AppendUint32(b, uint32(blk.Origin))
			b = be.AppendUint64(b, uint64(blk.Len))
		}
		b = be.AppendUint32(b, uint32(len(c.Payload)))
		bw.Write(b)
		bw.Write(c.Payload)
		b = b[:0]
	}
	bw.Write(b) // a chunkless frame's prefix; empty otherwise
	fw.hdr = b[:0]
	return bw.Flush()
}

// WriteSeg encodes and writes one segment sub-frame to w, reusing the
// internal buffers.
func (fw *FrameWriter) WriteSeg(w io.Writer, src int, op uint32, seq uint64, sf SegFrame) error {
	if len(sf.Payload) > MaxChunk {
		return fmt.Errorf("wire: segment payload of %d bytes exceeds %d", len(sf.Payload), MaxChunk)
	}
	var flags byte
	if sf.Meta != nil {
		flags = flagChunkMeta
		if sf.Meta.Relay {
			flags |= flagRelay
		}
	}
	b := appendPrefix(fw.hdr[:0], segFrameMagic, src, seq, op)
	b = be.AppendUint32(b, sf.Stream)
	b = be.AppendUint32(b, sf.Index)
	b = be.AppendUint32(b, sf.Count)
	b = append(b, flags)
	if m := sf.Meta; m != nil {
		b = be.AppendUint32(b, uint32(int32(m.Tag)))
		b = be.AppendUint32(b, uint32(block.HeaderLen(len(m.Blocks))))
		b = block.AppendHeader(b, m.Blocks)
		b = be.AppendUint32(b, uint32(len(m.Header)))
		b = append(b, m.Header...)
	}
	b = be.AppendUint32(b, uint32(len(sf.Payload)))
	fw.hdr = b[:0]
	bw := fw.bw
	bw.Reset(w)
	bw.Write(b)
	bw.Write(sf.Payload)
	return bw.Flush()
}

// FrameKind discriminates what a FrameReader found on the stream.
type FrameKind int

const (
	// FrameMsg is a whole-message frame ("EAGM"); Frame.Msg holds the
	// fully read message.
	FrameMsg FrameKind = iota
	// FrameSeg is a segment sub-frame ("EAGP"); Frame.Seg describes it
	// and its payload is still unread on the stream.
	FrameSeg
)

// Frame is the header-level view of one incoming frame.
type Frame struct {
	Kind FrameKind
	Src  int
	Op   uint32
	Seq  uint64
	Msg  block.Message // FrameMsg only
	Seg  SegFrame      // FrameSeg only; Payload nil, PayloadLen set
}

// FrameReader decodes frames of both kinds from one stream: the mirror
// of FrameWriter. Every fixed-width group of a header is read with one
// io.ReadFull into scratch the reader owns, so decoding a header
// allocates only what the frame carries (chunk list, block lists,
// payloads, sub-frame metadata). It buffers nothing itself — over a
// socket, give it a bufio.Reader — so the bytes after a segment
// sub-frame's header are still on the underlying reader, for the caller
// to consume. Not safe for concurrent use: each connection's reader
// goroutine owns one.
type FrameReader struct {
	// Alloc, when set, supplies the payload buffer of every encrypted
	// chunk of a message frame: exactly n bytes, which the reader
	// overwrites. Plaintext payloads are always made fresh.
	Alloc func(n int) []byte

	r   io.Reader
	hdr [prefixLen]byte // the largest fixed-width group
	bh  []byte          // encoded block-header scratch, grown on demand
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrameStart reads one frame of either kind with a one-shot
// FrameReader: see FrameReader.Next.
func ReadFrameStart(r io.Reader) (Frame, error) { return NewFrameReader(r).Next() }

// fill reads the next n header bytes into the scratch.
func (d *FrameReader) fill(n int) ([]byte, error) {
	b := d.hdr[:n]
	_, err := io.ReadFull(d.r, b)
	return b, err
}

// Next reads one frame of either kind. A message frame is read whole. A
// segment sub-frame is read and validated up to — but not including —
// its payload: the caller must consume exactly Seg.PayloadLen bytes from
// the underlying reader (into whatever buffer it chooses) before calling
// Next again. A stream that ends inside a frame yields
// io.ErrUnexpectedEOF, never ErrBadFrame.
func (d *FrameReader) Next() (Frame, error) {
	b, err := d.fill(prefixLen)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Src: int(be.Uint32(b[4:])), Seq: be.Uint64(b[8:]), Op: be.Uint32(b[16:])}
	switch m := be.Uint32(b); m {
	case magic:
		f.Msg, err = d.readMsg()
	case segFrameMagic:
		f.Kind = FrameSeg
		f.Seg, err = d.readSeg()
	default:
		return Frame{}, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, m)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the frame had begun
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// readMsg decodes a message frame's body after its prefix.
func (d *FrameReader) readMsg() (block.Message, error) {
	var msg block.Message
	b, err := d.fill(4)
	if err != nil {
		return msg, err
	}
	nChunks := be.Uint32(b)
	if nChunks > maxCount {
		return msg, fmt.Errorf("%w: %d chunks exceeds limit", ErrBadFrame, nChunks)
	}
	var total uint64
	msg.Chunks = make([]block.Chunk, 0, nChunks)
	for i := uint32(0); i < nChunks; i++ {
		b, err := d.fill(chunkFixedLen)
		if err != nil {
			return msg, err
		}
		c := block.Chunk{Enc: b[0]&1 != 0, Tag: int(int32(be.Uint32(b[1:])))}
		nBlocks := be.Uint32(b[5:])
		if nBlocks > maxCount {
			return msg, fmt.Errorf("%w: %d blocks exceeds limit", ErrBadFrame, nBlocks)
		}
		c.Blocks = make([]block.Block, nBlocks)
		for j := range c.Blocks {
			if b, err = d.fill(blockLen); err != nil {
				return msg, err
			}
			c.Blocks[j] = block.Block{Origin: int(be.Uint32(b)), Len: int64(be.Uint64(b[4:]))}
		}
		if b, err = d.fill(4); err != nil {
			return msg, err
		}
		plen := be.Uint32(b)
		if plen > MaxChunk {
			return msg, fmt.Errorf("%w: chunk payload of %d bytes exceeds %d", ErrBadFrame, plen, MaxChunk)
		}
		total += uint64(plen)
		if total > MaxFrame {
			return msg, fmt.Errorf("%w: frame exceeds %d bytes", ErrBadFrame, MaxFrame)
		}
		if c.Enc && d.Alloc != nil {
			c.Payload = d.Alloc(int(plen))
		} else {
			c.Payload = make([]byte, plen)
		}
		if _, err := io.ReadFull(d.r, c.Payload); err != nil {
			return msg, err
		}
		msg.Chunks = append(msg.Chunks, c)
	}
	return msg, nil
}

// readSeg decodes a segment sub-frame's header after its prefix,
// stopping before the payload.
func (d *FrameReader) readSeg() (SegFrame, error) {
	var sf SegFrame
	b, err := d.fill(segFixedLen)
	if err != nil {
		return sf, err
	}
	sf.Stream, sf.Index, sf.Count = be.Uint32(b), be.Uint32(b[4:]), be.Uint32(b[8:])
	flags := b[12]
	if sf.Count == 0 || sf.Count > maxCount {
		return sf, fmt.Errorf("%w: segment count %d out of range", ErrBadFrame, sf.Count)
	}
	if sf.Index >= sf.Count {
		return sf, fmt.Errorf("%w: segment index %d of %d", ErrBadFrame, sf.Index, sf.Count)
	}
	switch {
	case flags&^byte(flagChunkMeta|flagRelay) != 0:
		return sf, fmt.Errorf("%w: unknown sub-frame flags %#x", ErrBadFrame, flags)
	case flags == flagRelay:
		return sf, fmt.Errorf("%w: relay flag on a sub-frame without chunk metadata", ErrBadFrame)
	case flags != 0:
		if sf.Meta, err = d.readSegMeta(); err != nil {
			return sf, err
		}
		sf.Meta.Relay = flags&flagRelay != 0
	}
	if b, err = d.fill(4); err != nil {
		return sf, err
	}
	plen := be.Uint32(b)
	if plen > MaxChunk {
		return sf, fmt.Errorf("%w: segment payload of %d bytes exceeds %d", ErrBadFrame, plen, MaxChunk)
	}
	sf.PayloadLen = int(plen)
	return sf, nil
}

// readSegMeta decodes a stream's first-sub-frame metadata. The encoded
// block header is only parsed, so it goes through the reader's scratch;
// the seal header is handed to the caller, so it gets its own slice.
func (d *FrameReader) readSegMeta() (*SegMeta, error) {
	b, err := d.fill(segMetaLen)
	if err != nil {
		return nil, err
	}
	tag, bhLen := int(int32(be.Uint32(b))), be.Uint32(b[4:])
	if bhLen > maxSegMeta {
		return nil, fmt.Errorf("%w: block header of %d bytes", ErrBadFrame, bhLen)
	}
	if cap(d.bh) < int(bhLen) {
		d.bh = make([]byte, bhLen)
	}
	bh := d.bh[:bhLen]
	if _, err := io.ReadFull(d.r, bh); err != nil {
		return nil, err
	}
	blocks, err := block.DecodeHeader(bh)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if b, err = d.fill(4); err != nil {
		return nil, err
	}
	shLen := be.Uint32(b)
	if shLen > maxSegMeta {
		return nil, fmt.Errorf("%w: segment header of %d bytes", ErrBadFrame, shLen)
	}
	sh := make([]byte, shLen)
	if _, err := io.ReadFull(d.r, sh); err != nil {
		return nil, err
	}
	return &SegMeta{Tag: tag, Blocks: blocks, Header: sh}, nil
}
