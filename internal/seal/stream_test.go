package seal

import (
	"bytes"
	"errors"
	"testing"
)

// fillSlot copies one sealed segment (nonce || ciphertext || tag) into
// the stream's slot for its next segment, as a transport reads it: the
// nonce first, then the body.
func fillSlot(t *testing.T, os *OpenStream, seg []byte) {
	t.Helper()
	nonce, body := os.Slot()
	if len(nonce) != NonceSize || len(nonce)+len(body) != len(seg) {
		t.Fatalf("segment %d: slot %d+%d bytes, segment %d", os.Next(), len(nonce), len(body), len(seg))
	}
	copy(nonce, seg)
	copy(body, seg[NonceSize:])
}

// Stream-sealed segments reassemble into a blob the bulk opener
// accepts, and a stream opener fed those segments recovers the
// plaintext — opened in place, or kept sealed, for both regular and
// straggling last-segment geometries. An in-place stream's plaintext has
// no room past its length (the last tag's slack is out of reach); a
// kept stream's blob is the sent blob byte for byte.
func TestStreamRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("header-bytes")
	for _, n := range []int{64 << 10, 100<<10 + 13, 1 << 20} {
		pt := randBytes(t, n)
		st := s.NewSealStream([][]byte{pt[:n/3], pt[n/3:]}, aad)
		if st == nil {
			t.Fatalf("n=%d: NewSealStream returned nil", n)
		}
		if st.K() < 2 || st.K() != s.StreamSegments(int64(n)) {
			t.Fatalf("n=%d: stream plan has %d segments, StreamSegments %d", n, st.K(), s.StreamSegments(int64(n)))
		}
		if st.Total() != int64(n) {
			t.Fatalf("n=%d: Total=%d", n, st.Total())
		}
		sent := append([]byte(nil), st.Header()...)
		segs := make([][]byte, st.K())
		for i := range segs {
			seg, err := st.Segment(i)
			if err != nil {
				t.Fatalf("n=%d: Segment(%d): %v", n, i, err)
			}
			segs[i] = seg
			sent = append(sent, seg...)
		}
		if got, _, err := s.OpenSegmented(sent, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("n=%d: OpenSegmented(sent blob): %v", n, err)
		}

		for _, keep := range []bool{false, true} {
			os, err := s.NewOpenStream(st.Header(), aad)
			if err != nil {
				t.Fatalf("n=%d: NewOpenStream: %v", n, err)
			}
			if os.K() != st.K() || os.Total() != st.Total() || os.SealedLen() != len(sent) {
				t.Fatalf("n=%d: open stream geometry mismatch", n)
			}
			var blob []byte
			if keep {
				blob = make([]byte, os.SealedLen())
				os.KeepSealed(blob)
			}
			for i, seg := range segs {
				if len(seg) != os.SegmentLen(i) {
					t.Fatalf("n=%d: segment %d is %d bytes, receiver expects %d", n, i, len(seg), os.SegmentLen(i))
				}
				fillSlot(t, os, seg)
				if err := os.OpenNext(); err != nil {
					t.Fatalf("n=%d keep=%v: OpenNext(%d): %v", n, keep, i, err)
				}
			}
			got := os.Plaintext()
			if !bytes.Equal(got, pt) || cap(got) != n || os.Next() != os.K() {
				t.Fatalf("n=%d keep=%v: plaintext differs (len %d, cap %d, next %d)", n, keep, len(got), cap(got), os.Next())
			}
			if err := os.OpenNext(); err == nil {
				t.Fatalf("n=%d keep=%v: segment K opened", n, keep)
			}
			if keep && !bytes.Equal(blob, sent) {
				t.Fatalf("n=%d: kept blob differs from the sent one", n)
			}
		}
	}
}

// An in-place stream allocates only when it is made — its handle, its
// AAD and its plaintext — and opens every segment without allocating.
func TestOpenStreamInPlaceAllocs(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("allocs")
	pt := randBytes(t, 256<<10)
	st := s.NewSealStream([][]byte{pt}, aad)
	var segs [][]byte
	for i := 0; i < st.K(); i++ {
		seg, _ := st.Segment(i)
		segs = append(segs, seg)
	}
	allocs := testing.AllocsPerRun(10, func() {
		os, err := s.NewOpenStream(st.Header(), aad)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			nonce, body := os.Slot()
			copy(nonce, seg)
			copy(body, seg[NonceSize:])
			if err := os.OpenNext(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 3 {
		t.Fatalf("an in-place open of %d segments allocated %.1f objects, want 3", st.K(), allocs)
	}
}

// KeepSealed takes a blob of exactly SealedLen bytes, before the first
// segment only.
func TestKeepSealedMisuse(t *testing.T) {
	s := newTestSealer(t)
	st := s.NewSealStream([][]byte{randBytes(t, 64<<10)}, nil)
	seg0, _ := st.Segment(0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	os, _ := s.NewOpenStream(st.Header(), nil)
	mustPanic("short blob", func() { os.KeepSealed(make([]byte, os.SealedLen()-1)) })
	fillSlot(t, os, seg0)
	if err := os.OpenNext(); err != nil {
		t.Fatal(err)
	}
	mustPanic("after the first segment", func() { os.KeepSealed(make([]byte, os.SealedLen())) })
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

// Mid-stream tampering: a segment corrupted anywhere — the first, a
// middle one, the last, its tag (which an in-place stream keeps in the
// slack past the plaintext) — or reordered, spliced from another key,
// opened under the wrong AAD or never filled fails its own
// authentication with ErrAuth, after every segment before it opened, and
// the stream stays at it.
func TestStreamSegmentTamper(t *testing.T) {
	s := newTestSealer(t)
	aad := []byte("aad")
	pt := randBytes(t, 64<<10)
	st := s.NewSealStream([][]byte{pt}, aad)
	if st == nil || st.K() < 3 {
		t.Fatalf("need >= 3 segments, got %v", st)
	}
	k := st.K()
	segs := make([][]byte, k)
	for i := range segs {
		segs[i], _ = st.Segment(i)
	}
	other := newTestSealer(t)
	alien, _ := other.NewSealStream([][]byte{pt}, aad).Segment(0)
	flip := func(i, at int) [][]byte {
		out := append([][]byte(nil), segs...)
		out[i] = append([]byte(nil), segs[i]...)
		out[i][at] ^= 0x01
		return out
	}
	last := len(segs[k-1]) - 1
	cases := []struct {
		name   string
		aad    []byte
		feed   [][]byte // nil: the failing slot is left unfilled
		failAt int
	}{
		{"first segment", aad, flip(0, NonceSize+5), 0},
		{"middle segment", aad, flip(1, NonceSize+5), 1},
		{"last segment", aad, flip(k-1, NonceSize+5), k - 1},
		{"last tag", aad, flip(k-1, last), k - 1},
		{"nonce", aad, flip(1, 0), 1},
		{"reordered", aad, append([][]byte{segs[2][:len(segs[0])]}, segs[1:]...), 0},
		{"spliced", aad, append([][]byte{alien}, segs[1:]...), 0},
		{"wrong aad", []byte("different"), segs, 0},
		{"unfilled", aad, nil, 0},
	}
	for _, c := range cases {
		for _, keep := range []bool{false, true} {
			os, err := s.NewOpenStream(st.Header(), c.aad)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				os.KeepSealed(make([]byte, os.SealedLen()))
			}
			for i := 0; i <= c.failAt; i++ {
				if c.feed != nil {
					fillSlot(t, os, c.feed[i])
				}
				err := os.OpenNext()
				if i < c.failAt && err != nil {
					t.Fatalf("%s keep=%v: honest segment %d failed: %v", c.name, keep, i, err)
				}
				if i == c.failAt && !errors.Is(err, ErrAuth) {
					t.Fatalf("%s keep=%v: segment %d opened: %v", c.name, keep, i, err)
				}
			}
			if os.Next() != c.failAt {
				t.Fatalf("%s keep=%v: stream moved on to %d past the failed segment %d", c.name, keep, os.Next(), c.failAt)
			}
		}
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
		fillSlot(t, os, rest[:os.SegmentLen(i)])
		rest = rest[os.SegmentLen(i):]
		if err := os.OpenNext(); err != nil {
			t.Fatalf("OpenNext(%d): %v", i, err)
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
