package block

import (
	"bytes"
	"testing"
)

// FuzzDecodeHeader: arbitrary byte strings must never panic
// DecodeHeaderInto, the header parser the wire reader runs, and valid
// headers must round-trip through it.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(EncodeHeader([]Block{{Origin: 3, Len: 99}}))
	f.Add(EncodeHeader(nil))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x41, 0x47, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := DecodeHeaderInto(nil, data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the same bytes.
		re := EncodeHeader(blocks)
		if len(re) != len(data) {
			t.Fatalf("re-encoded %d bytes from %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("round trip differs at byte %d", i)
			}
		}
	})
}

// FuzzCheckPattern: the in-place check must agree with regenerating the
// pattern and comparing, on every (origin, bytes) whatsoever.
func FuzzCheckPattern(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(3, FillPattern(3, 1))
	f.Add(1, FillPattern(1, 256))
	f.Add(127, FillPattern(127, 257))
	f.Add(500, FillPattern(244, 700)) // origins 256 apart share a pattern
	late := FillPattern(2, 1000)
	late[999] ^= 0x10
	f.Add(2, late)
	early := FillPattern(2, 1000)
	early[5] ^= 0x01
	f.Add(2, early)
	f.Add(4, bytes.Repeat([]byte{7}, 600))
	f.Fuzz(func(t *testing.T, origin int, pl []byte) {
		want := bytes.Equal(pl, FillPattern(origin, int64(len(pl))))
		if got := CheckPattern(origin, pl); got != want {
			t.Fatalf("CheckPattern(%d, %d bytes) = %v, regenerate-and-compare = %v", origin, len(pl), got, want)
		}
	})
}

// FuzzPatternFill: the replicating fill must equal the per-byte
// reference, with len == cap, for every origin and length up to 256 KiB.
func FuzzPatternFill(f *testing.F) {
	f.Add(0, uint32(0))
	f.Add(3, uint32(1))
	f.Add(255, uint32(255))
	f.Add(256, uint32(256))
	f.Add(-1, uint32(257))
	f.Add(300, uint32(4097))
	f.Add(1<<40, uint32(1<<18))
	f.Fuzz(func(t *testing.T, origin int, n uint32) {
		m := int64(n % (1<<18 + 1))
		got := PatternFill(origin, m)
		if int64(len(got)) != m || cap(got) != len(got) || !bytes.Equal(got, FillPattern(origin, m)) {
			t.Fatalf("PatternFill(%d, %d): len %d cap %d, or bytes differ from FillPattern", origin, m, len(got), cap(got))
		}
	})
}

// FuzzAssembleByOrigin: AssembleByOrigin must lay out any plaintext
// messages exactly as splitting every chunk into copied single blocks
// and sorting them stably by origin does; its block lists must be
// capped views that appends cannot write through; and NormalizeV must
// accept the result exactly when every origin appears once at its size.
// Each input byte is one block: low three bits origin (0..p, where p is
// out of range), the next bit a wrong length, the top bit the start of a
// new chunk; a zero byte starts a new message.
func FuzzAssembleByOrigin(f *testing.F) {
	f.Add(uint8(4), []byte{0x80, 0x01, 0x82, 0x03})             // complete, one chunk per pair
	f.Add(uint8(4), []byte{0x83, 0x02, 0x00, 0x81, 0x80})       // complete, out of order, two messages
	f.Add(uint8(3), []byte{0x80, 0x81, 0x81, 0x82})             // origin 1 duplicated
	f.Add(uint8(3), []byte{0x80, 0x82})                         // origin 1 missing
	f.Add(uint8(2), []byte{0x80, 0x89})                         // origin 1 has a wrong length
	f.Add(uint8(2), []byte{0x80, 0x01, 0x02})                   // origin 2 is out of range
	f.Add(uint8(5), []byte{0x84, 0x03, 0x02, 0x00, 0x81, 0x00}) // multi-block chunk, empty message
	f.Fuzz(func(t *testing.T, pSeed uint8, spec []byte) {
		p := int(pSeed%6) + 1
		sizes := make([]int64, p)
		for o := range sizes {
			sizes[o] = int64(o % 3) // zero-length blocks included
		}
		var msgs []Message
		count := make([]int, p+1)
		valid := true
		for i, b := range spec {
			if b == 0 || i == 0 {
				msgs = append(msgs, Message{})
				if b == 0 {
					continue
				}
			}
			origin := int(b&7) % (p + 1)
			n := int64(origin % 3)
			if b&8 != 0 {
				n += 2
			}
			count[origin]++
			valid = valid && origin < p && n == sizes[origin]
			m := &msgs[len(msgs)-1]
			if b&0x80 != 0 || len(m.Chunks) == 0 {
				m.Chunks = append(m.Chunks, Chunk{Payload: []byte{}, Tag: len(m.Chunks)})
			}
			c := &m.Chunks[len(m.Chunks)-1]
			c.Blocks = append(c.Blocks, Block{Origin: origin, Len: n})
			c.Payload = append(c.Payload, FillPattern(origin, n)...)
		}
		for o := 0; o < p; o++ {
			valid = valid && count[o] == 1
		}
		valid = valid && count[p] == 0

		// The reference: copied single-block chunks, stably insertion
		// sorted by origin.
		var want []Chunk
		for _, m := range msgs {
			for _, c := range m.Chunks {
				var off int64
				for _, b := range c.Blocks {
					one := []Block{b}
					want = append(want, Chunk{Blocks: one, Payload: c.Payload[off : off+b.Len], Tag: c.Tag})
					off += b.Len
				}
			}
		}
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j].Blocks[0].Origin < want[j-1].Blocks[0].Origin; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		before := Concat(msgs...).Clone()

		got := AssembleByOrigin(nil, msgs...)
		if len(got.Chunks) != len(want) {
			t.Fatalf("%d chunks, want %d", len(got.Chunks), len(want))
		}
		for i, c := range got.Chunks {
			w := want[i]
			if c.Enc || len(c.Blocks) != 1 || c.Blocks[0] != w.Blocks[0] || c.Tag != w.Tag || !bytes.Equal(c.Payload, w.Payload) {
				t.Fatalf("chunk %d = %+v, want %+v", i, c, w)
			}
			_ = append(c.Blocks, Block{Origin: -1, Len: -1})
		}
		after := Concat(msgs...)
		for i, c := range before.Chunks {
			for j, b := range c.Blocks {
				if after.Chunks[i].Blocks[j] != b {
					t.Fatalf("appending to the result changed input chunk %d block %d to %v", i, j, after.Chunks[i].Blocks[j])
				}
			}
		}

		_, err := NormalizeV(got, sizes, true)
		if valid != (err == nil) {
			t.Fatalf("NormalizeV = %v, want valid=%v (counts %v)", err, valid, count)
		}
	})
}
