package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"encag/internal/block"
)

func sampleSeg(meta bool) SegFrame {
	sf := SegFrame{Stream: 7, Index: 0, Count: 3, Payload: []byte("nonce+ct+tag bytes")}
	if meta {
		sf.Meta = &SegMeta{
			Tag:    -2,
			Blocks: []block.Block{{Origin: 1, Len: 100}, {Origin: 2, Len: 28}},
			Header: []byte{0x45, 0x41, 0x47, 0x53, 0, 0, 0, 1, 0, 0, 0, 64},
		}
	}
	return sf
}

// Segment sub-frames round-trip through the reusable writer — with and
// without chunk metadata — interleaved with message frames on the same
// stream.
func TestSegFrameRoundTrip(t *testing.T) {
	fw := NewFrameWriter()
	var buf bytes.Buffer
	msg := block.NewPlain(4, []byte("regular message"))
	if err := fw.WriteSeg(&buf, 3, 9, 100, sampleSeg(true)); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteMsg(&buf, 3, 9, 101, msg); err != nil {
		t.Fatal(err)
	}
	second := sampleSeg(false)
	second.Index = 1
	if err := fw.WriteSeg(&buf, 3, 9, 102, second); err != nil {
		t.Fatal(err)
	}

	fr, err := ReadFrameStart(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != FrameSeg || fr.Src != 3 || fr.Op != 9 || fr.Seq != 100 {
		t.Fatalf("first frame: %+v", fr)
	}
	sf := fr.Seg
	if sf.Stream != 7 || sf.Index != 0 || sf.Count != 3 || sf.Meta == nil {
		t.Fatalf("seg header: %+v", sf)
	}
	if sf.Meta.Tag != -2 || len(sf.Meta.Blocks) != 2 || sf.Meta.Blocks[1].Origin != 2 {
		t.Fatalf("meta: %+v", sf.Meta)
	}
	if !bytes.Equal(sf.Meta.Header, sampleSeg(true).Meta.Header) {
		t.Fatal("segment header bytes differ")
	}
	payload := make([]byte, sf.PayloadLen)
	if _, err := io.ReadFull(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, sampleSeg(true).Payload) {
		t.Fatalf("payload %q", payload)
	}

	fr, err = ReadFrameStart(&buf)
	if err != nil || fr.Kind != FrameMsg || fr.Seq != 101 {
		t.Fatalf("message frame: %+v, %v", fr, err)
	}
	if len(fr.Msg.Chunks) != 1 || !bytes.Equal(fr.Msg.Chunks[0].Payload, []byte("regular message")) {
		t.Fatalf("message: %+v", fr.Msg)
	}

	fr, err = ReadFrameStart(&buf)
	if err != nil || fr.Seg.Meta != nil || fr.Seg.Index != 1 || fr.Seq != 102 {
		t.Fatalf("metaless sub-frame: %+v, %v", fr, err)
	}
	payload = make([]byte, fr.Seg.PayloadLen)
	if _, err := io.ReadFull(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, second.Payload) {
		t.Fatalf("metaless payload %q", payload)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

// Sub-frame field byte offsets after the magic, for the mutation
// helpers below: src 4, seq 8, op 16, stream 20, index 24, count 28,
// flags 32, then (per flags) the chunk metadata from 33.
const (
	offIndex = 24
	offCount = 28
	offFlags = 32
	offMeta  = 33
)

// Malformed sub-frame fields are rejected with ErrBadFrame before any
// payload-sized allocation.
func TestSegFrameRejectsMalformed(t *testing.T) {
	encode := func(sf SegFrame, mutate func([]byte) []byte) []byte {
		var buf bytes.Buffer
		if err := NewFrameWriter().WriteSeg(&buf, 1, 2, 3, sf); err != nil {
			t.Fatal(err)
		}
		return mutate(buf.Bytes())
	}
	withMeta := func(mutate func([]byte) []byte) []byte { return encode(sampleSeg(true), mutate) }
	cases := map[string][]byte{
		"zero count": withMeta(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[offCount:], 0)
			return b
		}),
		"index >= count": withMeta(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[offIndex:], 3)
			return b
		}),
		"count over limit": withMeta(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[offCount:], maxCount+1)
			return b
		}),
		"bad magic": withMeta(func(b []byte) []byte {
			b[3] = 'X'
			return b
		}),
		"unknown flag bits": withMeta(func(b []byte) []byte {
			b[offFlags] |= 0x80
			return b
		}),
		"retired flag bits": withMeta(func(b []byte) []byte {
			b[offFlags] |= 0x0C
			return b
		}),
		"unknown flag bit beside relay": withMeta(func(b []byte) []byte {
			b[offFlags] |= flagRelay | 0x10
			return b
		}),
		"relay flag without metadata": encode(sampleSeg(false), func(b []byte) []byte {
			b[offFlags] |= flagRelay
			return b
		}),
		"block header garbage": withMeta(func(b []byte) []byte {
			b[offMeta+8] ^= 0xFF // inside the encoded block header magic
			return b
		}),
	}
	for name, data := range cases {
		if _, err := ReadFrameStart(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}

	// The relay flag (bit 1) is accepted on a first sub-frame, and only
	// there; it round-trips as SegMeta.Relay.
	relay := sampleSeg(true)
	relay.Meta.Relay = true
	fr, err := ReadFrameStart(bytes.NewReader(encode(relay, func(b []byte) []byte {
		if b[offFlags] != flagChunkMeta|flagRelay {
			t.Fatalf("relay first sub-frame written with flags %#x", b[offFlags])
		}
		return b
	})))
	if err != nil || fr.Seg.Meta == nil || !fr.Seg.Meta.Relay {
		t.Fatalf("relay first sub-frame: %+v, %v", fr.Seg.Meta, err)
	}
	if fr, err := ReadFrameStart(bytes.NewReader(withMeta(func(b []byte) []byte { return b }))); err != nil || fr.Seg.Meta.Relay {
		t.Fatalf("plain first sub-frame read as relayed: %v", err)
	}

	// Oversized payload length declared.
	big := withMeta(func(b []byte) []byte { return b })
	binary.BigEndian.PutUint32(big[len(big)-4-len(sampleSeg(true).Payload):], MaxChunk+1)
	if _, err := ReadFrameStart(bytes.NewReader(big)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized payload: err = %v", err)
	}

	// Writer refuses oversized payloads outright.
	sf := sampleSeg(false)
	sf.Payload = make([]byte, MaxChunk+1)
	if err := NewFrameWriter().WriteSeg(io.Discard, 0, 0, 0, sf); err == nil {
		t.Error("oversized segment written")
	}
}

// FrameWriter.WriteMsg is byte-compatible with the legacy WriteFrame.
func TestFrameWriterMsgCompat(t *testing.T) {
	msg := block.Message{Chunks: []block.Chunk{
		{Enc: true, Tag: 5, Blocks: []block.Block{{Origin: 0, Len: 44}}, Payload: make([]byte, 72)},
	}}
	var legacy, reused bytes.Buffer
	if err := WriteFrame(&legacy, 2, 11, 42, msg); err != nil {
		t.Fatal(err)
	}
	fw := NewFrameWriter()
	for i := 0; i < 3; i++ { // reuse across calls
		reused.Reset()
		if err := fw.WriteMsg(&reused, 2, 11, 42, msg); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(legacy.Bytes(), reused.Bytes()) {
		t.Fatal("FrameWriter.WriteMsg bytes differ from WriteFrame")
	}
	if src, op, seq, got, err := ReadFrame(&reused); err != nil || src != 2 || op != 11 || seq != 42 || len(got.Chunks) != 1 {
		t.Fatalf("decode: src=%d op=%d seq=%d err=%v", src, op, seq, err)
	}
}

// FuzzReadFrameStart: arbitrary bytes — including corrupted segment
// sub-frames and message frames — must never panic or over-allocate.
func FuzzReadFrameStart(f *testing.F) {
	var seg bytes.Buffer
	_ = NewFrameWriter().WriteSeg(&seg, 3, 9, 100, sampleSeg(true))
	f.Add(seg.Bytes())
	var metaless bytes.Buffer
	_ = NewFrameWriter().WriteSeg(&metaless, 3, 9, 101, sampleSeg(false))
	f.Add(metaless.Bytes())
	var enc bytes.Buffer
	_ = WriteFrame(&enc, 3, 9, 102, goldenMsg())
	f.Add(enc.Bytes())
	var msg bytes.Buffer
	_ = WriteFrame(&msg, 3, 0, 0, block.NewPlain(0, []byte("seed")))
	f.Add(msg.Bytes())
	f.Add([]byte{})
	// Bit flips across every segment sub-frame header field: stream id,
	// segment index and count (high and low bytes), flags, and the
	// metadata's tag, block-header length and block header.
	for _, off := range []int{20, offIndex, offIndex + 3, offCount, offCount + 3, offFlags, offMeta, offMeta + 4, offMeta + 8} {
		flip := append([]byte(nil), seg.Bytes()...)
		flip[off] ^= 0x40
		f.Add(flip)
	}
	// The same over a message frame's chunk count, first chunk's flags
	// and its block count.
	for _, off := range []int{23, 24, 32} {
		flip := append([]byte(nil), enc.Bytes()...)
		flip[off] ^= 0x40
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrameStart(r)
		if err == nil && fr.Kind == FrameSeg {
			// Consume the payload the way the transport would.
			io.CopyN(io.Discard, r, int64(fr.Seg.PayloadLen))
		}
		checkReaderShapes(t, data)
	})
}
