package block

import (
	"bytes"
	"testing"
)

// FuzzDecodeHeader: arbitrary byte strings must never panic the header
// parser, and valid headers must round-trip through it.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(EncodeHeader([]Block{{Origin: 3, Len: 99}}))
	f.Add(EncodeHeader(nil))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x41, 0x47, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := DecodeHeader(data)
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
