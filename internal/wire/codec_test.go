package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"encag/internal/block"
)

// encodedFrame is one frame of a test stream: its name and how to
// write it.
type encodedFrame struct {
	name  string
	write func(fw *FrameWriter, w io.Writer) error
}

func msgFrame(name string, src int, op uint32, seq uint64, msg block.Message) encodedFrame {
	return encodedFrame{name, func(fw *FrameWriter, w io.Writer) error { return fw.WriteMsg(w, src, op, seq, msg) }}
}

func segFrame(name string, src int, op uint32, seq uint64, sf SegFrame) encodedFrame {
	return encodedFrame{name, func(fw *FrameWriter, w io.Writer) error { return fw.WriteSeg(w, src, op, seq, sf) }}
}

// goldenMsg has a plaintext, an encrypted multi-block and an empty chunk.
func goldenMsg() block.Message {
	return block.Message{Chunks: []block.Chunk{
		{Blocks: []block.Block{{Origin: 0, Len: 5}}, Payload: []byte("hello"), Tag: 3},
		{Enc: true, Blocks: []block.Block{{Origin: 1, Len: 2}, {Origin: 7, Len: 9}}, Payload: []byte{1, 2, 3, 4}, Tag: -1},
		{Blocks: nil, Payload: []byte{}},
	}}
}

// emptySeg is a metaless segment sub-frame with a zero-length payload.
func emptySeg() SegFrame {
	return SegFrame{Stream: 1, Index: 2, Count: 4, Payload: []byte{}}
}

// goldenFrames pins the wire format, so any change to a byte of either
// frame kind fails here. The message frames are the per-field writer's
// output this codec replaced; the sub-frames are the layout documented in
// pipeline.go, with one flag bit and no chunk index.
var goldenFrames = []struct {
	frame encodedFrame
	hex   string
}{
	{msgFrame("message, three chunks", 3, 9, 0x0102030405060708, goldenMsg()),
		"4541474d00000003010203040506070800000009000000030000000003000000010000000000000000000000050000000568656c6c6f01ffffffff00000002000000010000000000000002000000070000000000000009000000040102030400000000000000000000000000"},
	{msgFrame("message, no chunks", 0, 0, 0, block.Message{}),
		"4541474d0000000000000000000000000000000000000000"},
	{segFrame("segment, chunk metadata", 3, 9, 100, sampleSeg(true)),
		"454147500000000300000000000000640000000900000007000000000000000301fffffffe00000020454147310000000200000001000000000000006400000002000000000000001c0000000c454147530000000100000040000000126e6f6e63652b63742b746167206279746573"},
	{segFrame("segment, no metadata", 3, 9, 102, sampleSeg(false)),
		"454147500000000300000000000000660000000900000007000000000000000300000000126e6f6e63652b63742b746167206279746573"},
	{segFrame("segment, empty payload", 7, 0xFFFFFFFF, ^uint64(0), emptySeg()),
		"4541475000000007ffffffffffffffffffffffff0000000100000002000000040000000000"},
}

// FrameWriter output is byte-identical to the parent's encoding, through
// one reused writer and through the one-shot WriteFrame.
func TestFrameWriterGoldenBytes(t *testing.T) {
	fw := NewFrameWriter()
	for round := 0; round < 2; round++ { // the second round reuses grown buffers
		for _, g := range goldenFrames {
			var buf bytes.Buffer
			if err := g.frame.write(fw, &buf); err != nil {
				t.Fatalf("%s: %v", g.frame.name, err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != g.hex {
				t.Fatalf("%s (round %d):\n got %s\nwant %s", g.frame.name, round, got, g.hex)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, 9, 0x0102030405060708, goldenMsg()); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenFrames[0].hex {
		t.Fatalf("WriteFrame:\n got %s\nwant %s", got, goldenFrames[0].hex)
	}
}

// FrameReader.Alloc supplies the payload of every encrypted chunk and of
// nothing else; a stale buffer it hands out is overwritten.
func TestFrameReaderAllocEncryptedOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, 9, 1, goldenMsg()); err != nil {
		t.Fatal(err)
	}
	var asked []int
	d := NewFrameReader(&buf)
	d.Alloc = func(n int) []byte {
		asked = append(asked, n)
		return bytes.Repeat([]byte{0xA5}, n)
	}
	f, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asked, []int{4}) {
		t.Fatalf("Alloc asked for %v, want only the encrypted chunk's 4 bytes", asked)
	}
	for i, c := range goldenMsg().Chunks {
		if got := f.Msg.Chunks[i].Payload; !bytes.Equal(got, c.Payload) {
			t.Fatalf("chunk %d payload %x, want %x", i, got, c.Payload)
		}
	}
}

// streamFrames interleaves both frame kinds: message frames with and
// without chunks, segment sub-frames with and without chunk metadata,
// zero-length payloads, and a payload larger than a socket read buffer.
func streamFrames() []encodedFrame {
	frames := make([]encodedFrame, 0, len(goldenFrames)+3)
	for _, g := range goldenFrames {
		frames = append(frames, g.frame)
	}
	zeroPayload := block.Message{Chunks: []block.Chunk{{Blocks: []block.Block{{Origin: 2, Len: 0}}, Payload: []byte{}}}}
	emptyFirst := SegFrame{Stream: 9, Index: 0, Count: 1,
		Meta: &SegMeta{Blocks: []block.Block{{Origin: 5, Len: 0}}}, Payload: []byte{}}
	big := sampleSeg(false)
	big.Payload = bytes.Repeat([]byte("0123456789abcdef"), 10<<10/16)
	return append(frames,
		msgFrame("message, zero-length payload", 2, 4, 200, zeroPayload),
		segFrame("segment with metadata, empty", 2, 4, 201, emptyFirst),
		segFrame("segment, 10 KiB payload", 2, 4, 202, big))
}

// encodeStream writes frames back to back and returns the stream and
// the offset at which each frame ends.
func encodeStream(t testing.TB, frames []encodedFrame) ([]byte, []int) {
	fw := NewFrameWriter()
	var buf bytes.Buffer
	ends := make([]int, len(frames))
	for i, f := range frames {
		if err := f.write(fw, &buf); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		ends[i] = buf.Len()
	}
	return buf.Bytes(), ends
}

// decodedFrame is one frame as a reader saw it, payload included.
type decodedFrame struct {
	Frame
	payload []byte
}

// decodeStream reads frames off r with one FrameReader until the stream
// ends, consuming each sub-frame's payload from r the way the transport
// does. A clean end between frames is not an error.
func decodeStream(r io.Reader) ([]decodedFrame, error) {
	d := NewFrameReader(r)
	var out []decodedFrame
	for {
		f, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var payload []byte
		if f.Kind == FrameSeg {
			var buf bytes.Buffer
			if _, err := io.CopyN(&buf, r, int64(f.Seg.PayloadLen)); err != nil {
				return out, err
			}
			payload = buf.Bytes()
		}
		out = append(out, decodedFrame{f, payload})
	}
}

// readerShapes are the ways a stream arrives: whole, a byte per Read,
// and half of each request per Read.
var readerShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// reencode writes a decoded frame back out, payload included.
func reencode(t *testing.T, fw *FrameWriter, f decodedFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if f.Kind == FrameMsg {
		err = fw.WriteMsg(&buf, f.Src, f.Op, f.Seq, f.Msg)
	} else {
		sf := f.Seg
		sf.Payload = f.payload
		err = fw.WriteSeg(&buf, f.Src, f.Op, f.Seq, sf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// One FrameReader decodes an interleaved stream of both kinds
// identically however the bytes arrive: every frame re-encodes to
// exactly its original bytes, and the three reader shapes agree.
func TestFrameReaderStream(t *testing.T) {
	frames := streamFrames()
	stream, ends := encodeStream(t, frames)
	fw := NewFrameWriter()
	var whole []decodedFrame
	for _, shape := range readerShapes {
		got, err := decodeStream(shape.wrap(bytes.NewReader(stream)))
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if len(got) != len(frames) {
			t.Fatalf("%s: %d frames decoded, want %d", shape.name, len(got), len(frames))
		}
		start := 0
		for i, f := range got {
			if want := stream[start:ends[i]]; !bytes.Equal(reencode(t, fw, f), want) {
				t.Fatalf("%s: frame %d (%s) does not re-encode to its bytes", shape.name, i, frames[i].name)
			}
			start = ends[i]
		}
		if whole == nil {
			whole = got
		} else if !reflect.DeepEqual(got, whole) {
			t.Fatalf("%s: frames differ from the whole-stream decode", shape.name)
		}
	}
}

// A stream cut anywhere inside a frame — header or payload — ends in a
// connection-lifecycle error (the transport's connDied), never
// ErrBadFrame, and every frame before the cut is still delivered.
func TestFrameReaderTruncation(t *testing.T) {
	stream, ends := encodeStream(t, streamFrames())
	start := 0
	for i, end := range ends {
		// Every byte of the small frames; ~256 points of the large one.
		for cut := start + 1; cut < end; cut += 1 + (end-start)/256 {
			for _, shape := range readerShapes {
				got, err := decodeStream(shape.wrap(bytes.NewReader(stream[:cut])))
				if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
					t.Fatalf("%s: cut at %d inside frame %d: err = %v, want EOF or ErrUnexpectedEOF", shape.name, cut, i, err)
				}
				if errors.Is(err, ErrBadFrame) {
					t.Fatalf("%s: cut at %d reported as a bad frame: %v", shape.name, cut, err)
				}
				if len(got) != i {
					t.Fatalf("%s: cut at %d inside frame %d: %d frames delivered", shape.name, cut, i, len(got))
				}
			}
		}
		start = end
	}
}

// Steady-state writes allocate nothing, and header decoding allocates
// only what the frame carries.
func TestFrameCodecAllocs(t *testing.T) {
	fw := NewFrameWriter()
	msg, seg := goldenMsg(), sampleSeg(true)
	if n := testing.AllocsPerRun(100, func() { _ = fw.WriteMsg(io.Discard, 3, 9, 1, msg) }); n != 0 {
		t.Errorf("WriteMsg: %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = fw.WriteSeg(io.Discard, 3, 9, 1, seg) }); n != 0 {
		t.Errorf("WriteSeg: %v allocs per frame, want 0", n)
	}

	rd := bytes.NewReader(nil)
	d := NewFrameReader(rd)
	cases := []struct {
		name  string
		hex   string
		allow float64
	}{
		// The chunk list, two non-empty block lists, two non-empty
		// payloads (empty slices do not allocate).
		{"message", goldenFrames[0].hex, 5},
		{"segment, no metadata", goldenFrames[3].hex, 0},
		// SegMeta, its block list and its seal header; the encoded block
		// header goes through the reader's scratch.
		{"segment with metadata", goldenFrames[2].hex, 3},
	}
	for _, c := range cases {
		raw, _ := hex.DecodeString(c.hex)
		n := testing.AllocsPerRun(100, func() {
			rd.Reset(raw)
			if _, err := d.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.allow {
			t.Errorf("%s: %v allocs per decode, want ≤ %v", c.name, n, c.allow)
		}
	}
}

// checkReaderShapes decodes arbitrary bytes as a stream with one
// FrameReader per reader shape: the shapes must agree on every frame and
// payload and on how the stream ends (clean, corrupt, or cut).
func checkReaderShapes(t *testing.T, data []byte) {
	var whole []decodedFrame
	var wholeErr error
	for i, shape := range readerShapes {
		got, err := decodeStream(shape.wrap(bytes.NewReader(data)))
		if i == 0 {
			whole, wholeErr = got, err
			continue
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("%s: frames differ from the whole-stream decode", shape.name)
		}
		if (err == nil) != (wholeErr == nil) || errors.Is(err, ErrBadFrame) != errors.Is(wholeErr, ErrBadFrame) {
			t.Fatalf("%s: stream ended with %v, whole-stream decode with %v", shape.name, err, wholeErr)
		}
	}
}
