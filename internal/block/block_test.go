package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"encag/internal/seal"
)

func TestWireLenAccountsOverhead(t *testing.T) {
	plain := Chunk{Blocks: []Block{{Origin: 0, Len: 100}, {Origin: 1, Len: 50}}}
	if plain.WireLen() != 150 {
		t.Fatalf("plain WireLen = %d, want 150", plain.WireLen())
	}
	enc := Chunk{Enc: true, Blocks: plain.Blocks}
	if enc.WireLen() != 150+seal.Overhead {
		t.Fatalf("enc WireLen = %d, want %d", enc.WireLen(), 150+seal.Overhead)
	}
	m := Message{Chunks: []Chunk{plain, enc}}
	if m.WireLen() != 300+seal.Overhead {
		t.Fatalf("msg WireLen = %d", m.WireLen())
	}
	if m.PlainLen() != 300 {
		t.Fatalf("msg PlainLen = %d", m.PlainLen())
	}
	if m.NumBlocks() != 4 || m.NumCiphertexts() != 1 || !m.HasCiphertext() {
		t.Fatal("counting helpers wrong")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	blocks := []Block{{Origin: 7, Len: 1 << 20}, {Origin: 0, Len: 1}, {Origin: 1023, Len: 0}}
	hdr := EncodeHeader(blocks)
	got, err := DecodeHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("block %d = %+v, want %+v", i, got[i], blocks[i])
		}
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	hdr := EncodeHeader([]Block{{Origin: 1, Len: 2}})
	hdr[0] ^= 0xFF
	if _, err := DecodeHeader(hdr); err == nil {
		t.Fatal("bad magic accepted")
	}
	hdr2 := EncodeHeader([]Block{{Origin: 1, Len: 2}})
	if _, err := DecodeHeader(hdr2[:len(hdr2)-1]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(origins []uint16, lens []uint32) bool {
		n := len(origins)
		if len(lens) < n {
			n = len(lens)
		}
		blocks := make([]Block, n)
		for i := 0; i < n; i++ {
			blocks[i] = Block{Origin: int(origins[i]), Len: int64(lens[i])}
		}
		got, err := DecodeHeader(EncodeHeader(blocks))
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeHappyPathRealMode(t *testing.T) {
	const p, m = 4, 32
	var msg Message
	// One chunk holding blocks 2,3 together, plus single chunks 0 and 1.
	both := append(FillPattern(2, m), FillPattern(3, m)...)
	msg.Append(Chunk{Blocks: []Block{{2, m}, {3, m}}, Payload: both})
	msg.Append(NewPlain(0, FillPattern(0, m)).Chunks...)
	msg.Append(NewPlain(1, FillPattern(1, m)).Chunks...)
	payloads, err := Normalize(msg, p, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != p {
		t.Fatalf("payloads = %d, want %d", len(payloads), p)
	}
}

func TestNormalizeFailures(t *testing.T) {
	const m = 8
	mk := func(origins ...int) Message {
		var msg Message
		for _, o := range origins {
			msg.Append(NewPlain(o, FillPattern(o, m)).Chunks...)
		}
		return msg
	}
	if _, err := Normalize(mk(0, 1), 3, m, true); err == nil {
		t.Fatal("missing origin accepted")
	}
	if _, err := Normalize(mk(0, 1, 1), 3, m, true); err == nil {
		t.Fatal("duplicate origin accepted")
	}
	if _, err := Normalize(mk(0, 1, 5), 3, m, true); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
	bad := mk(0, 1, 2)
	bad.Chunks[1].Payload = FillPattern(7, m) // wrong contents
	if _, err := Normalize(bad, 3, m, true); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	encd := mk(0, 1, 2)
	encd.Chunks[0].Enc = true
	if _, err := Normalize(encd, 3, m, true); err == nil {
		t.Fatal("encrypted chunk in final result accepted")
	}
	wrongLen := mk(0, 1)
	wrongLen.Append(Chunk{Blocks: []Block{{2, m + 1}}, Payload: FillPattern(2, m+1)})
	if _, err := Normalize(wrongLen, 3, m, true); err == nil {
		t.Fatal("wrong block length accepted")
	}
}

func TestNormalizeSimMode(t *testing.T) {
	const p, m = 8, 1024
	var msg Message
	for o := p - 1; o >= 0; o-- {
		msg.Append(Chunk{Blocks: []Block{{o, m}}})
	}
	if _, err := Normalize(msg, p, m, false); err != nil {
		t.Fatal(err)
	}
}

func TestSortChunksByOrigin(t *testing.T) {
	chunks := []Chunk{
		{Blocks: []Block{{3, 1}}},
		{Blocks: []Block{{0, 1}, {1, 1}}},
		{Blocks: []Block{{2, 1}}},
	}
	SortChunksByOrigin(chunks)
	want := []int{0, 2, 3}
	for i, w := range want {
		if chunks[i].Blocks[0].Origin != w {
			t.Fatalf("chunk %d origin = %d, want %d", i, chunks[i].Blocks[0].Origin, w)
		}
	}
}

func TestClone(t *testing.T) {
	c := Message{Chunks: []Chunk{{Blocks: []Block{{0, 10}}}, {Blocks: []Block{{1, 20}}}}}
	if c.NumBlocks() != 2 || c.WireLen() != 30 {
		t.Fatal("message sizes wrong")
	}
	d := c.Clone()
	d.Chunks[0].Blocks[0].Origin = 99
	if c.Chunks[0].Blocks[0].Origin == 99 {
		t.Fatal("clone shares block slice")
	}
}

func TestPatternDeterministic(t *testing.T) {
	a := FillPattern(5, 100)
	b := FillPattern(5, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	c := FillPattern(6, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("patterns for different origins identical")
	}
}

// TestPatternFillMatchesFillPattern pins the replicating fill to the
// per-byte reference for origins 0-300 (so Pattern's byte wraps) at
// lengths around the 256-byte period and its doublings: same bytes,
// len == cap, and a fresh buffer on every call.
func TestPatternFillMatchesFillPattern(t *testing.T) {
	lengths := []int64{0, 1, 255, 256, 257, 4095, 4096, 4097, 1<<20 + 3}
	for origin := 0; origin <= 300; origin++ {
		for _, n := range lengths {
			got := PatternFill(origin, n)
			if int64(len(got)) != n || cap(got) != len(got) {
				t.Fatalf("origin=%d n=%d: len %d cap %d, want both %d", origin, n, len(got), cap(got), n)
			}
			if !bytes.Equal(got, FillPattern(origin, n)) {
				t.Fatalf("origin=%d n=%d: PatternFill differs from FillPattern", origin, n)
			}
		}
	}
	a, b := PatternFill(7, 300), PatternFill(7, 300)
	a[299] ^= 0xFF
	if !CheckPattern(7, b) {
		t.Fatal("writing one PatternFill buffer changed another")
	}
}

// TestCheckPattern pins CheckPattern to the expression it replaced,
// bytes.Equal(pl, FillPattern(origin, len(pl))), around the pattern's
// 256-byte period: clean patterns pass, any single corrupted byte fails
// (every position up to 1 KiB, 200 seeded positions above), and so do
// another origin's pattern and the origin's own pattern off by one byte
// (what a mis-sliced or aliased view would hold).
func TestCheckPattern(t *testing.T) {
	lengths := []int{0, 1, 255, 256, 257, 511, 512, 513, 1 << 10, 64<<10 + 1, 1<<20 + 13}
	origins := []int{0, 1, 3, 127, 500}
	rng := rand.New(rand.NewSource(22))
	for _, n := range lengths {
		for _, origin := range origins {
			want := FillPattern(origin, int64(n))
			pl := append([]byte(nil), want...)
			check := func(what string, o int, b []byte, accept bool) {
				t.Helper()
				got := CheckPattern(o, b)
				if old := bytes.Equal(b, FillPattern(o, int64(len(b)))); got != old {
					t.Fatalf("n=%d origin=%d %s: CheckPattern = %v, regenerate-and-compare = %v", n, o, what, got, old)
				}
				if got != accept {
					t.Fatalf("n=%d origin=%d %s: CheckPattern = %v, want %v", n, o, what, got, accept)
				}
			}
			check("clean", origin, pl, true)
			if n == 0 {
				continue
			}
			flip := func(i int) {
				t.Helper()
				pl[i] ^= byte(1 + rng.Intn(255))
				if CheckPattern(origin, pl) {
					t.Fatalf("n=%d origin=%d: corrupted byte %d accepted", n, origin, i)
				}
				pl[i] = want[i]
			}
			if n <= 1<<10 {
				for i := range pl {
					flip(i)
				}
			} else {
				flip(0)
				flip(n - 1)
				for k := 0; k < 200; k++ {
					flip(rng.Intn(n))
				}
			}
			check("restored", origin, pl, true)
			check("wrong origin", origin+1, pl, false)
			check("off by one", origin, FillPattern(origin, int64(n)+1)[1:], false)
		}
	}
}

// A split chunk's block list is a view of the source's, capped at one
// block: appending to it must copy, never overwrite the source's next
// block.
func TestSplitChunkBlocksCapped(t *testing.T) {
	src := Chunk{Blocks: []Block{{0, 2}, {1, 3}, {2, 1}}, Payload: []byte("abcdef"), Tag: 4}
	want := append([]Block(nil), src.Blocks...)
	parts := SplitChunk(nil, src)
	if len(parts) != 3 {
		t.Fatalf("split into %d chunks, want 3", len(parts))
	}
	for i, c := range parts {
		if len(c.Blocks) != 1 || cap(c.Blocks) != 1 || c.Blocks[0] != want[i] || c.Tag != 4 {
			t.Fatalf("chunk %d = %+v, want the one block %v (cap 1, tag 4)", i, c, want[i])
		}
		c.Blocks = append(c.Blocks, Block{Origin: 99, Len: 99})
		c.Blocks[0].Origin = 77 // the copy's, not the source's
	}
	for i, b := range src.Blocks {
		if b != want[i] {
			t.Fatalf("source block %d = %v after appending to the split, want %v", i, b, want[i])
		}
	}
	if got := string(parts[1].Payload); got != "cde" {
		t.Fatalf("chunk 1 payload = %q, want %q", got, "cde")
	}
}

// BenchmarkPatternFill compares the replicating fill with the per-byte
// reference it replaces on the real engines.
func BenchmarkPatternFill(b *testing.B) {
	fills := []struct {
		name string
		fill func(int, int64) []byte
	}{{"PatternFill", PatternFill}, {"FillPattern", FillPattern}}
	for _, n := range []int64{1 << 10, 64 << 10, 1 << 20} {
		for _, f := range fills {
			b.Run(fmt.Sprintf("%s/%dKiB", f.name, n>>10), func(b *testing.B) {
				b.SetBytes(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.fill(i, n)
				}
			})
		}
	}
}

// EncodeHeader serializes a block list; it is bound to each ciphertext as
// GCM additional authenticated data so that an adversary cannot re-route
// or re-label an intercepted ciphertext without detection.
func EncodeHeader(blocks []Block) []byte {
	return AppendHeader(make([]byte, 0, HeaderLen(len(blocks))), blocks)
}

// DecodeHeader parses a header produced by EncodeHeader.
func DecodeHeader(buf []byte) ([]Block, error) {
	n, err := headerCount(buf)
	if err != nil {
		return nil, err
	}
	return appendBlocks(make([]Block, 0, n), buf), nil
}

// Normalize validates that msg is a complete plaintext all-gather result
// for p ranks of size m each and returns per-origin payloads (real mode)
// or nil payloads (sim mode): views into the message's own chunk
// payloads, nothing is copied. It fails if any chunk is still encrypted,
// any origin is missing or duplicated, a length is wrong, or (real mode)
// a payload does not match the deterministic pattern when checkPattern is
// set. The structural checks cost O(p); checkPattern adds one CheckPattern
// pass over every gathered byte.
func Normalize(msg Message, p int, m int64, checkPattern bool) ([][]byte, error) {
	return NormalizeV(msg, UniformSizes(p, m), checkPattern)
}

// NormalizeV is Normalize for variable block sizes (the all-gatherv
// extension): sizes[origin] is the expected plaintext length of each
// rank's contribution.
func NormalizeV(msg Message, sizes []int64, checkPattern bool) ([][]byte, error) {
	payloads := make([][]byte, len(sizes))
	if err := NormalizeInto(payloads, make([]bool, len(sizes)), msg, sizes); err != nil {
		return nil, err
	}
	if checkPattern {
		for origin, pl := range payloads {
			if pl == nil {
				return nil, fmt.Errorf("block: origin %d has no payload in real mode", origin)
			}
			if !CheckPattern(origin, pl) {
				return nil, fmt.Errorf("block: origin %d payload corrupted", origin)
			}
		}
	}
	return payloads, nil
}
