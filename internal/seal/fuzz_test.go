package seal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzOpen feeds arbitrary blobs and AADs to Open: it must never panic,
// and must never "succeed" on garbage (forging GCM without the key is
// infeasible, so any accepted input would be a bug in our framing).
func FuzzOpen(f *testing.F) {
	s, err := NewRandomSealer()
	if err != nil {
		f.Fatal(err)
	}
	good, err := s.Seal([]byte("seed plaintext"), []byte("seed aad"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, []byte("seed aad"))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, Overhead), []byte(nil))
	f.Add(make([]byte, Overhead-1), []byte("x"))
	f.Fuzz(func(t *testing.T, blob, aad []byte) {
		pt, err := s.Open(blob, aad)
		if err == nil {
			// The only way a random mutation verifies is if the fuzzer
			// reproduced the seed blob + aad exactly.
			if !bytes.Equal(blob, good) || !bytes.Equal(aad, []byte("seed aad")) {
				t.Fatalf("forged blob accepted (%d bytes): %q", len(blob), pt)
			}
		}
	})
}

// FuzzSegmentedFraming feeds arbitrary bytes to the segmented codec.
// OpenSegmented must never panic and never accept anything but the seed
// blob; it opens only what blobLayout calls framed, and NewOpenStream
// must accept the header prefix exactly when the blob is framed or only
// its length is wrong: one parser decides all of them. A framed blob fed
// to an OpenStream segment by segment, opened in place, gives
// OpenSegmented's plaintext byte for byte (its length and capacity the
// total), or fails at the first segment that does not authenticate on
// its own, exactly when OpenSegmented fails.
func FuzzSegmentedFraming(f *testing.F) {
	s, err := NewRandomSealer()
	if err != nil {
		f.Fatal(err)
	}
	s.SetSegmentSize(16)
	aad := []byte("seed aad")
	plain := bytes.Repeat([]byte("seed"), 10) // 16 + 16 + 8 bytes
	good, _, err := s.SealSegmented([][]byte{plain}, aad)
	if err != nil {
		f.Fatal(err)
	}
	irregular := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(irregular[segHeaderFixed:], 8)
	binary.BigEndian.PutUint32(irregular[segHeaderFixed+8:], 16)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:segHeaderFixed+4])
	f.Add(irregular)
	f.Add(append([]byte("EAGS\x00\x00\x00\x01\x00\x00\x00\x00"), make([]byte, Overhead)...))
	f.Add([]byte("EAGS\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		pt, segs, openErr := s.OpenSegmented(blob, aad)
		if openErr == nil && (!bytes.Equal(blob, good) || !bytes.Equal(pt, plain)) {
			t.Fatalf("forged blob accepted (%d bytes, %d segments)", len(blob), segs)
		}
		l, layoutErr := blobLayout(blob)
		k, framed := l.k, layoutErr == nil
		if openErr == nil && (!framed || segs != k) {
			t.Fatalf("verdicts disagree: %d segments framed, open %v with %d", k, openErr, segs)
		}
		hdr := blob
		if len(blob) >= segHeaderFixed {
			if n := segHeaderFixed + 4*int64(binary.BigEndian.Uint32(blob[4:])); n < int64(len(blob)) {
				hdr = blob[:n]
			}
		}
		os, hdrErr := s.NewOpenStream(hdr, aad)
		switch {
		case framed && hdrErr != nil:
			t.Fatalf("blob framed but its header refused: %v", hdrErr)
		case framed && (os.K() != k || int64(len(blob)) != int64(len(hdr))+os.Total()+int64(k)*Overhead):
			t.Fatalf("geometry disagrees: open stream %d/%d, segments %d, blob %d bytes",
				os.K(), os.Total(), k, len(blob))
		case !framed && hdrErr == nil &&
			int64(len(blob)) == int64(len(hdr))+os.Total()+int64(os.K())*Overhead:
			t.Fatal("header accepted and blob length matches it, but the blob was refused")
		}
		if !framed {
			return
		}
		// The first segment that fails alone, as OpenSegmented opens it.
		firstBad := k
		scratch := make([]byte, os.Total())
		for i := 0; i < k && firstBad == k; i++ {
			if s.openSegment(l, blob, scratch, aad, i) != nil {
				firstBad = i
			}
		}
		var streamErr error
		for i := 0; i < k && streamErr == nil; i++ {
			seg := l.segment(blob, i)
			nonce, body := os.Slot()
			copy(nonce, seg)
			copy(body, seg[NonceSize:])
			streamErr = os.OpenNext()
		}
		switch got := os.Plaintext(); {
		case (streamErr == nil) != (openErr == nil):
			t.Fatalf("in-place open %v, OpenSegmented %v", streamErr, openErr)
		case streamErr != nil && os.Next() != firstBad:
			t.Fatalf("in-place open failed at segment %d, the first bad segment is %d", os.Next(), firstBad)
		case streamErr == nil && (!bytes.Equal(got, pt) || int64(cap(got)) != os.Total()):
			t.Fatalf("in-place plaintext differs from OpenSegmented's (len %d, cap %d)", len(got), cap(got))
		}
	})
}

// FuzzSealRoundTrip: any plaintext/AAD must round-trip and produce the
// documented expansion.
func FuzzSealRoundTrip(f *testing.F) {
	s, err := NewRandomSealer()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("data"), []byte("aad"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, pt, aad []byte) {
		blob, err := s.Seal(pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != len(pt)+Overhead {
			t.Fatalf("expansion %d, want %d", len(blob)-len(pt), Overhead)
		}
		got, err := s.Open(blob, aad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatal("round trip mismatch")
		}
	})
}
