package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"encag/internal/block"
)

func roundTrip(t *testing.T, src int, msg block.Message) (int, block.Message) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, src, 0, 0, msg); err != nil {
		t.Fatal(err)
	}
	gotSrc, _, _, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return gotSrc, got
}

func TestMessageRoundTrip(t *testing.T) {
	msg := block.Message{Chunks: []block.Chunk{
		{Blocks: []block.Block{{Origin: 0, Len: 5}}, Payload: []byte("hello"), Tag: 3},
		{Enc: true, Blocks: []block.Block{{Origin: 1, Len: 2}, {Origin: 7, Len: 9}},
			Payload: []byte{1, 2, 3, 4}, Tag: -1},
		{Blocks: nil, Payload: []byte{}},
	}}
	src, got := roundTrip(t, 42, msg)
	if src != 42 {
		t.Fatalf("src = %d", src)
	}
	if len(got.Chunks) != 3 {
		t.Fatalf("chunks = %d", len(got.Chunks))
	}
	if !got.Chunks[1].Enc || got.Chunks[1].Tag != -1 {
		t.Fatalf("chunk 1 = %+v", got.Chunks[1])
	}
	if got.Chunks[1].Blocks[1] != (block.Block{Origin: 7, Len: 9}) {
		t.Fatalf("block = %+v", got.Chunks[1].Blocks[1])
	}
	if !bytes.Equal(got.Chunks[0].Payload, []byte("hello")) {
		t.Fatal("payload mismatch")
	}
}

func TestEmptyMessage(t *testing.T) {
	src, got := roundTrip(t, 0, block.Message{})
	if src != 0 || len(got.Chunks) != 0 {
		t.Fatalf("empty round trip: src=%d chunks=%d", src, len(got.Chunks))
	}
}

func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, 17); err != nil {
		t.Fatal(err)
	}
	r, err := ReadHello(&buf)
	if err != nil || r != 17 {
		t.Fatalf("hello = %d, %v", r, err)
	}
	if _, err := ReadHello(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("bad hello accepted")
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 1, 2, 3})); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, _, _, _, err := ReadFrame(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("zero magic accepted")
	}
	// Absurd chunk count must be rejected before allocation. The count
	// sits after magic (4), src (4), seq (8) and epoch (4).
	var buf bytes.Buffer
	_ = WriteFrame(&buf, 0, 0, 0, block.Message{})
	raw := buf.Bytes()
	raw[20], raw[21], raw[22], raw[23] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("absurd chunk count accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	msg := block.NewPlain(3, []byte("some payload data"))
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 0, 0, msg); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 5 {
		if _, _, _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Property: arbitrary messages survive the codec byte-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src uint16, tags []int16, payloads [][]byte, encs []bool) bool {
		var msg block.Message
		for i, pl := range payloads {
			c := block.Chunk{Payload: pl}
			if pl == nil {
				c.Payload = []byte{}
			}
			if i < len(tags) {
				c.Tag = int(tags[i])
			}
			if i < len(encs) {
				c.Enc = encs[i]
			}
			c.Blocks = []block.Block{{Origin: i, Len: int64(len(c.Payload))}}
			msg.Append(c)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, int(src), 0, 0, msg); err != nil {
			return false
		}
		gotSrc, _, _, got, err := ReadFrame(&buf)
		if err != nil || gotSrc != int(src) || len(got.Chunks) != len(msg.Chunks) {
			return false
		}
		for i := range got.Chunks {
			a, b := got.Chunks[i], msg.Chunks[i]
			if a.Enc != b.Enc || a.Tag != b.Tag || !bytes.Equal(a.Payload, b.Payload) {
				return false
			}
			if len(a.Blocks) != len(b.Blocks) {
				return false
			}
			for j := range a.Blocks {
				if a.Blocks[j] != b.Blocks[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// oversizedLengthFrame builds a structurally valid frame whose payload
// length field claims far more bytes than MaxChunk allows.
func oversizedLengthFrame(t testing.TB, plen uint32) []byte {
	var buf bytes.Buffer
	msg := block.NewPlain(0, []byte("tiny"))
	if err := WriteFrame(&buf, 1, 0, 0, msg); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The payload length field sits 4 bytes before the payload itself,
	// which is the last len("tiny") bytes of the frame.
	off := len(raw) - 4 - 4
	raw[off], raw[off+1], raw[off+2], raw[off+3] =
		byte(plen>>24), byte(plen>>16), byte(plen>>8), byte(plen)
	return raw
}

// A corrupt length prefix must be rejected before make([]byte, plen) can
// attempt a huge allocation.
func TestOversizedPayloadLengthRejected(t *testing.T) {
	for _, plen := range []uint32{MaxChunk + 1, 1 << 30, 0xFFFFFFFF} {
		raw := oversizedLengthFrame(t, plen)
		if _, _, _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
			t.Fatalf("payload length %d accepted", plen)
		}
	}
	// The writer refuses to produce such a frame in the first place.
	huge := block.Message{Chunks: []block.Chunk{{
		Blocks:  []block.Block{{Origin: 0, Len: MaxChunk + 1}},
		Payload: make([]byte, MaxChunk+1),
	}}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, 0, 0, huge); err == nil {
		t.Fatal("oversized chunk written")
	}
}

// FuzzReadMessage: arbitrary bytes must never panic or over-allocate.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, 3, 0, 0, block.NewPlain(0, []byte("seed")))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(oversizedLengthFrame(f, 0xFFFFFFFF))
	f.Add(oversizedLengthFrame(f, MaxChunk+1))
	// Single-bit corruptions of a valid frame observed to black-hole a
	// live stream: an inflated-but-under-limit block count (byte 31)
	// makes the decoder legally wait for phantom block descriptors, and
	// flipped seq (byte 14) / op-id (bytes 16-19) bytes must still parse
	// to a routable frame.
	for _, off := range []int{31, 14, 16, 17, 18, 19} {
		bitFlip := append([]byte(nil), buf.Bytes()...)
		bitFlip[off] ^= 0x40
		f.Add(bitFlip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _, _ = ReadFrame(bytes.NewReader(data))
		checkReaderShapes(t, data)
	})
}

// Sequence numbers survive the codec.
func TestSequenceNumberRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := block.NewPlain(2, []byte("payload"))
	for _, seq := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
		buf.Reset()
		if err := WriteFrame(&buf, 5, 0, seq, msg); err != nil {
			t.Fatal(err)
		}
		src, _, gotSeq, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if src != 5 || gotSeq != seq || len(got.Chunks) != 1 {
			t.Fatalf("seq %d decoded as src=%d seq=%d chunks=%d", seq, src, gotSeq, len(got.Chunks))
		}
	}
}

// Operation ids survive the codec across the full uint32 range.
func TestOpIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := block.NewPlain(1, []byte("payload"))
	for _, op := range []uint32{0, 1, 9, 1 << 20, ^uint32(0)} {
		buf.Reset()
		if err := WriteFrame(&buf, 3, op, 42, msg); err != nil {
			t.Fatal(err)
		}
		src, gotOp, seq, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if src != 3 || gotOp != op || seq != 42 || len(got.Chunks) != 1 {
			t.Fatalf("op %d decoded as src=%d op=%d seq=%d chunks=%d",
				op, src, gotOp, seq, len(got.Chunks))
		}
	}
}

// Interleaved frames of distinct operations on one stream demultiplex
// cleanly: each frame comes back under exactly the id it was written
// with, in stream order — the codec-level guarantee the transport's
// per-operation routing is built on.
func TestInterleavedOpIDsOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	type fr struct {
		op  uint32
		seq uint64
		pay byte
	}
	frames := []fr{{1, 0, 'a'}, {2, 1, 'b'}, {1, 2, 'c'}, {3, 3, 'd'}, {2, 4, 'e'}}
	for _, f := range frames {
		if err := WriteFrame(&buf, 0, f.op, f.seq, block.NewPlain(0, []byte{f.pay})); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		_, op, seq, msg, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if op != want.op || seq != want.seq || msg.Chunks[0].Payload[0] != want.pay {
			t.Fatalf("frame %d decoded as op=%d seq=%d pay=%q, want %+v", i, op, seq, msg.Chunks[0].Payload, want)
		}
	}
}

// legacyPR4Frame hand-encodes a frame exactly as the epoch-based
// revision of this codec wrote it (same layout, the u32 after seq held
// a session epoch counter), independent of the current writer.
func legacyPR4Frame(src uint32, epoch uint32, seq uint64, payload []byte) []byte {
	var buf bytes.Buffer
	be := func(v uint32) { var b [4]byte; binary.BigEndian.PutUint32(b[:], v); buf.Write(b[:]) }
	be64 := func(v uint64) { var b [8]byte; binary.BigEndian.PutUint64(b[:], v); buf.Write(b[:]) }
	be(0x4541474D) // magic "EAGM"
	be(src)
	be64(seq)
	be(epoch)
	be(1)            // one chunk
	buf.WriteByte(0) // flags: plaintext
	be(0)            // tag
	be(1)            // one block
	be(src)          // origin
	be64(uint64(len(payload)))
	be(uint32(len(payload)))
	buf.Write(payload)
	return buf.Bytes()
}

// Frames written by the PR-4-era epoch dialect remain fully readable:
// same layout, the epoch value simply arrives as the operation id, for
// the transport's registry to route or drop. A legacy frame whose
// non-format fields are garbage still parses (never misrouted by the
// codec — routing is above this layer); one with a broken format field
// is rejected with a structured ErrBadFrame.
func TestLegacyEpochFramesCompat(t *testing.T) {
	raw := legacyPR4Frame(2, 7, 5, []byte("legacy-bytes"))
	src, op, seq, msg, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy frame rejected: %v", err)
	}
	if src != 2 || op != 7 || seq != 5 || !bytes.Equal(msg.Chunks[0].Payload, []byte("legacy-bytes")) {
		t.Fatalf("legacy frame decoded as src=%d op=%d seq=%d", src, op, seq)
	}
	// Byte-identity with the current writer: the dialects are one format.
	var cur bytes.Buffer
	if err := WriteFrame(&cur, 2, 7, 5, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur.Bytes(), raw) {
		t.Fatal("current writer and legacy encoding diverge")
	}
	// A legacy frame with a corrupted format field fails structured.
	bad := legacyPR4Frame(2, 7, 5, []byte("legacy-bytes"))
	bad[0] ^= 0x40 // magic
	if _, _, _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted legacy frame err = %v, want ErrBadFrame", err)
	}
}

// Every format rejection wraps ErrBadFrame, so transports can tell a
// corrupted stream from connection lifecycle errors; plain truncation
// is an I/O error, not a format one.
func TestStructuredFormatErrors(t *testing.T) {
	msg := block.NewPlain(0, []byte("some payload bytes"))
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 3, 9, msg); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	corrupt := func(off int, val byte) []byte {
		raw := append([]byte(nil), pristine...)
		raw[off] = val
		return raw
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"bad magic", corrupt(0, 0xEE)},
		{"absurd chunk count", corrupt(20, 0xFF)},
		{"absurd block count", corrupt(29, 0xFF)},
		{"oversized payload length", oversizedLengthFrame(t, MaxChunk+1)},
	}
	for _, tc := range cases {
		_, _, _, _, err := ReadFrame(bytes.NewReader(tc.raw))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	// Truncation mid-frame is an I/O condition (the transport handles it
	// via reconnect), not a format rejection.
	_, _, _, _, err := ReadFrame(bytes.NewReader(pristine[:len(pristine)-3]))
	if err == nil || errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame err = %v, want a plain I/O error", err)
	}
	if _, err := ReadHello(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad hello err = %v, want ErrBadFrame", err)
	}
}

// Streams of frames decode in order.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, i, 0, 0, block.NewPlain(i, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	r := io.Reader(&buf)
	for i := 0; i < 10; i++ {
		src, _, _, msg, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if src != i || msg.Chunks[0].Payload[0] != byte(i) {
			t.Fatalf("frame %d decoded as src=%d", i, src)
		}
	}
}
