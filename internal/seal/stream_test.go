package seal

import (
	"bytes"
	"errors"
	"testing"
)

// Stream-sealed segments must reassemble into a blob the bulk opener
// accepts, and a stream opener fed those segments must recover the
// plaintext — for both regular and straggling last-segment geometries.
func TestStreamRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("header-bytes")
	for _, n := range []int{64 << 10, 100<<10 + 13, 1 << 20} {
		pt := randBytes(t, n)
		st := s.NewSealStream([][]byte{pt[:n/3], pt[n/3:]}, aad)
		if st == nil {
			t.Fatalf("n=%d: NewSealStream returned nil", n)
		}
		if st.K() < 2 {
			t.Fatalf("n=%d: stream plan has %d segments, want >= 2", n, st.K())
		}
		if st.Total() != int64(n) {
			t.Fatalf("n=%d: Total=%d", n, st.Total())
		}

		os, err := s.NewOpenStream(st.Header(), aad)
		if err != nil {
			t.Fatalf("n=%d: NewOpenStream: %v", n, err)
		}
		if os.K() != st.K() || os.Total() != st.Total() {
			t.Fatalf("n=%d: open stream geometry mismatch", n)
		}
		sent := append([]byte(nil), st.Header()...)
		for i := 0; i < st.K(); i++ {
			seg, err := st.Segment(i)
			if err != nil {
				t.Fatalf("n=%d: Segment(%d): %v", n, i, err)
			}
			if len(seg) != os.SegmentLen(i) {
				t.Fatalf("n=%d: segment %d is %d bytes, receiver expects %d",
					n, i, len(seg), os.SegmentLen(i))
			}
			sent = append(sent, seg...)
			copy(os.SegmentSlot(i), seg)
			if err := os.OpenSegment(i); err != nil {
				t.Fatalf("n=%d: OpenSegment(%d): %v", n, i, err)
			}
		}
		if !bytes.Equal(os.Plaintext(), pt) {
			t.Fatalf("n=%d: streamed plaintext differs", n)
		}

		// The assembled blobs must satisfy the bulk opener too.
		for name, blob := range map[string][]byte{"send": sent, "recv": os.Blob()} {
			got, _, err := s.OpenSegmented(blob, aad)
			if err != nil {
				t.Fatalf("n=%d: OpenSegmented(%s blob): %v", n, name, err)
			}
			if !bytes.Equal(got, pt) {
				t.Fatalf("n=%d: %s blob plaintext differs", n, name)
			}
		}
	}
}

// Sub-blob plans: too-small payloads refuse to stream.
func TestStreamRefusesSmallPayloads(t *testing.T) {
	s := newTestSealer(t)
	if st := s.NewSealStream([][]byte{make([]byte, 4<<10)}, nil); st != nil {
		t.Fatalf("4KB payload streamed as %d segments, want nil", st.K())
	}
	// Explicitly configured sizes override the streaming plan.
	s.SetSegmentSize(1 << 10)
	st := s.NewSealStream([][]byte{make([]byte, 4<<10)}, nil)
	if st == nil || st.K() != 4 {
		t.Fatalf("explicit 1KB plan: got %v, want 4 segments", st)
	}
}

// Mid-stream tampering: corrupting, reordering or splicing individual
// segments fails that segment's authentication while honest segments
// still open.
func TestStreamSegmentTamper(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("aad")
	pt := randBytes(t, 64<<10)
	st := s.NewSealStream([][]byte{pt}, aad)
	if st == nil || st.K() < 3 {
		t.Fatalf("need >= 3 segments, got %v", st)
	}

	// Corrupt one in-flight byte of segment 1.
	os, err := s.NewOpenStream(st.Header(), aad)
	if err != nil {
		t.Fatalf("NewOpenStream: %v", err)
	}
	for i := 0; i < st.K(); i++ {
		seg, err := st.Segment(i)
		if err != nil {
			t.Fatalf("Segment(%d): %v", i, err)
		}
		copy(os.SegmentSlot(i), seg)
	}
	os.SegmentSlot(1)[NonceSize+5] ^= 0x01
	for i := 0; i < st.K(); i++ {
		err := os.OpenSegment(i)
		if i == 1 && !errors.Is(err, ErrAuth) {
			t.Fatalf("corrupted segment opened: %v", err)
		}
		if i != 1 && err != nil {
			t.Fatalf("honest segment %d failed: %v", i, err)
		}
	}

	// Reorder: deliver segment 2's bytes into slot 0.
	os2, _ := s.NewOpenStream(st.Header(), aad)
	seg2, _ := st.Segment(2)
	copy(os2.SegmentSlot(0), seg2[:os2.SegmentLen(0)])
	if err := os2.OpenSegment(0); !errors.Is(err, ErrAuth) {
		t.Fatalf("reordered segment opened: %v", err)
	}

	// Splice: a same-geometry segment sealed under a different key.
	other := newTestSealer(t)
	st2 := other.NewSealStream([][]byte{pt}, aad)
	os3, _ := s.NewOpenStream(st.Header(), aad)
	alien, _ := st2.Segment(0)
	copy(os3.SegmentSlot(0), alien)
	if err := os3.OpenSegment(0); !errors.Is(err, ErrAuth) {
		t.Fatalf("spliced segment opened: %v", err)
	}

	// Wrong AAD fails every segment.
	os4, _ := s.NewOpenStream(st.Header(), []byte("different"))
	seg0, _ := st.Segment(0)
	copy(os4.SegmentSlot(0), seg0)
	if err := os4.OpenSegment(0); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong-AAD segment opened: %v", err)
	}

	// An unfilled (all-zero) slot is just another failed authentication.
	os5, _ := s.NewOpenStream(st.Header(), aad)
	if err := os5.OpenSegment(0); !errors.Is(err, ErrAuth) {
		t.Fatalf("unfilled slot opened: %v", err)
	}
}

// Forged headers are rejected before any allocation-scale damage.
func TestOpenStreamRejectsForgedHeaders(t *testing.T) {
	s := newTestSealer(t)
	pt := randBytes(t, 32<<10)
	st := s.NewSealStream([][]byte{pt}, nil)
	hdr := append([]byte(nil), st.Header()...)

	bad := [][]byte{
		nil,
		hdr[:3],                            // truncated fixed prefix
		append([]byte("XXXX"), hdr[4:]...), // wrong magic
		hdr[:len(hdr)-2],                   // truncated length table
		append(append([]byte(nil), hdr...), 0, 0, 0, 0), // trailing bytes
	}
	// Count says 2^20 but the table is empty.
	forged := append([]byte(nil), hdr[:8]...)
	forged[4], forged[5], forged[6], forged[7] = 0x7f, 0xff, 0xff, 0xff
	bad = append(bad, forged)
	for i, h := range bad {
		if _, err := s.NewOpenStream(h, nil); err == nil {
			t.Fatalf("case %d: forged header accepted", i)
		}
	}
}

// A stream seals each segment into its caller's buffer: once the buffer
// has room, sealing every segment allocates nothing. The header followed
// by those segments is a whole segmented blob, which opens both in bulk
// and segment by segment.
func TestStreamSegmentsIntoCallerBuffer(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("caller-buffer")
	pt := randBytes(t, 100<<10+13) // the last segment is short
	// Two parts, so one segment is gathered across the boundary.
	st := s.NewSealStream([][]byte{pt[:30<<10], pt[30<<10:]}, aad)
	if st == nil || st.K() < 3 {
		t.Fatalf("need >= 3 segments, got %v", st)
	}
	buf := make([]byte, 0, int(st.Total())+st.K()*Overhead)
	sealAll := func() {
		buf = buf[:0]
		for i := 0; i < st.K(); i++ {
			seg, err := st.AppendSegment(buf[len(buf):], i)
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[:len(buf)+len(seg)]
		}
	}
	sealAll() // warm the AAD scratch
	if allocs := testing.AllocsPerRun(20, sealAll); allocs != 0 {
		t.Fatalf("sealing %d segments into a caller's buffer allocated %.1f objects", st.K(), allocs)
	}

	blob := append(append([]byte(nil), st.Header()...), buf...)
	got, k, err := s.OpenSegmented(blob, aad)
	if err != nil || k != st.K() || !bytes.Equal(got, pt) {
		t.Fatalf("OpenSegmented: %d segments, err %v", k, err)
	}
	os, err := s.NewOpenStream(st.Header(), aad)
	if err != nil {
		t.Fatal(err)
	}
	rest := buf
	for i := 0; i < os.K(); i++ {
		n := copy(os.SegmentSlot(i), rest[:os.SegmentLen(i)])
		rest = rest[n:]
		if err := os.OpenSegment(i); err != nil {
			t.Fatalf("OpenSegment(%d): %v", i, err)
		}
	}
	if len(rest) != 0 || !bytes.Equal(os.Plaintext(), pt) {
		t.Fatalf("OpenStream: %d bytes left over, plaintext equal %v", len(rest), bytes.Equal(os.Plaintext(), pt))
	}
	if _, err := st.AppendSegment(nil, st.K()); err == nil {
		t.Fatal("segment index K accepted")
	}
}

// The adaptive bulk plan caps segment count by pool parallelism; an
// explicit segment size is always honored exactly.
func TestAdaptiveSegmentPlan(t *testing.T) {
	s := newTestSealer(t)
	p := NewPool(1)
	defer p.Close()
	s.SetPool(p)
	pt := make([]byte, 2<<20)
	blob, segs, err := s.SealSegmented([][]byte{pt}, nil)
	if err != nil {
		t.Fatalf("SealSegmented: %v", err)
	}
	if want := 2*1 + 2; segs > want {
		t.Fatalf("adaptive plan produced %d segments on a 1-worker pool, want <= %d", segs, want)
	}
	if got, _, err := s.OpenSegmented(blob, nil); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("adaptive blob failed round trip: %v", err)
	}

	// Small payloads keep the default split untouched.
	if _, segs, _ := s.SealSegmented([][]byte{make([]byte, 1<<10)}, nil); segs != 1 {
		t.Fatalf("1KB payload split into %d segments", segs)
	}

	// Explicit configuration bypasses adaptivity entirely.
	s.SetSegmentSize(64 << 10)
	if _, segs, _ := s.SealSegmented([][]byte{pt}, nil); segs != 32 {
		t.Fatalf("explicit 64KB plan produced %d segments, want 32", segs)
	}
	// And n <= 0 restores the adaptive default.
	s.SetSegmentSize(0)
	if _, segs, _ := s.SealSegmented([][]byte{pt}, nil); segs > 4 {
		t.Fatalf("adaptive plan not restored: %d segments", segs)
	}
}

func TestBlobSegments(t *testing.T) {
	s := newTestSealer(t)
	s.SetSegmentSize(16 << 10)
	blob, segs, err := s.SealSegmented([][]byte{make([]byte, 64<<10)}, nil)
	if err != nil {
		t.Fatalf("SealSegmented: %v", err)
	}
	if got := BlobSegments(blob); got != segs {
		t.Fatalf("BlobSegments=%d want %d", got, segs)
	}
	if got := BlobSegments([]byte("junk")); got != 0 {
		t.Fatalf("BlobSegments(junk)=%d want 0", got)
	}
}
