package seal

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"
)

// segSealer returns a Sealer with a small segment size so multi-segment
// paths are exercised on small test payloads.
func segSealer(t *testing.T, segSize, workers int) *Sealer {
	t.Helper()
	s, err := NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	s.SetSegmentSize(segSize)
	p := NewPool(workers)
	t.Cleanup(p.Close)
	s.SetPool(p)
	return s
}

func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// Sizes straddling the segment boundary: empty, sub-segment, exactly one
// segment, one byte over, several segments, and a ragged tail.
func boundarySizes(segSize int) []int {
	return []int{0, 1, segSize - 1, segSize, segSize + 1, 2 * segSize, 3*segSize + 7}
}

func TestSegmentedRoundTripBoundarySizes(t *testing.T) {
	const segSize = 1024
	s := segSealer(t, segSize, 4)
	aad := []byte("layout header")
	for _, n := range boundarySizes(segSize) {
		pt := randBytes(t, n)
		blob, segs, err := s.SealSegmented([][]byte{pt}, aad)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := SegmentCount(int64(n), segSize); segs != want {
			t.Fatalf("n=%d: %d segments, want %d", n, segs, want)
		}
		if int64(len(blob)) != SegmentedLen(int64(n), segSize) {
			t.Fatalf("n=%d: blob %d bytes, want %d", n, len(blob), SegmentedLen(int64(n), segSize))
		}
		got, gotSegs, err := s.OpenSegmented(blob, aad)
		if err != nil {
			t.Fatalf("n=%d open: %v", n, err)
		}
		if gotSegs != segs {
			t.Fatalf("n=%d: opened %d segments, sealed %d", n, gotSegs, segs)
		}
		if got == nil || !bytes.Equal(got, pt) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		// The segmented path and the serial path agree on the plaintext:
		// sealing the same bytes serially round-trips identically.
		serial, err := s.Seal(pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Open(serial, aad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, got) {
			t.Fatalf("n=%d: serial and segmented plaintexts differ", n)
		}
	}
}

func TestSegmentedGathersParts(t *testing.T) {
	const segSize = 256
	s := segSealer(t, segSize, 2)
	// Parts whose boundaries do not line up with segment boundaries.
	parts := [][]byte{
		randBytes(t, 100),
		randBytes(t, 300),
		{},
		randBytes(t, 1),
		randBytes(t, 513),
	}
	var want []byte
	for _, p := range parts {
		want = append(want, p...)
	}
	blob, _, err := s.SealSegmented(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.OpenSegmented(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gathered parts do not round trip")
	}
}

// SealSegmentedWith writes every byte of the buffer it is handed: a blob
// sealed into a buffer full of stale bytes, with segments both inside
// one part and across part boundaries, opens to the plaintext, and the
// stale buffer is what comes back.
func TestSealSegmentedWithStaleBuffer(t *testing.T) {
	const segSize = 256
	s := segSealer(t, segSize, 2)
	parts := [][]byte{randBytes(t, 300), randBytes(t, 100), randBytes(t, 613)}
	want := bytes.Join(parts, nil)
	var stale []byte
	alloc := func(n int) []byte {
		stale = bytes.Repeat([]byte{0xA5}, n+64) // longer than asked: the tail is never part of the blob
		return stale[:n]
	}
	blob, _ := s.SealSegmentedWith(alloc, parts, []byte("aad"))
	if &blob[0] != &stale[0] || int64(len(blob)) != SegmentedLen(int64(len(want)), segSize) {
		t.Fatalf("blob of %d bytes is not the allocated buffer", len(blob))
	}
	got, _, err := s.OpenSegmented(blob, []byte("aad"))
	if err != nil {
		t.Fatalf("a blob sealed into a stale buffer does not open: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a blob sealed into a stale buffer opens to the wrong plaintext")
	}
}

// Tampering with any single byte — header, any segment's nonce,
// ciphertext or tag — must fail the whole open.
func TestSegmentedTamperAnySegmentFailsWhole(t *testing.T) {
	const segSize = 512
	s := segSealer(t, segSize, 4)
	pt := randBytes(t, 3*segSize+17)
	aad := []byte("aad")
	blob, segs, err := s.SealSegmented([][]byte{pt}, aad)
	if err != nil {
		t.Fatal(err)
	}
	if segs < 2 {
		t.Fatalf("want multi-segment blob, got %d segments", segs)
	}
	step := len(blob)/97 + 1
	for i := 0; i < len(blob); i += step {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x20
		if _, _, err := s.OpenSegmented(bad, aad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	if _, _, err := s.OpenSegmented(blob, []byte("other aad")); err == nil {
		t.Fatal("modified caller AAD accepted")
	}
	if _, _, err := s.OpenSegmented(blob[:len(blob)-1], aad); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// Swapping two complete, equal-size sealed segments must fail: the AAD
// binds each segment to its index.
func TestSegmentedReorderDetected(t *testing.T) {
	const segSize = 256
	s := segSealer(t, segSize, 1)
	pt := randBytes(t, 3*segSize)
	blob, segs, err := s.SealSegmented([][]byte{pt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if segs != 3 {
		t.Fatalf("segments = %d, want 3", segs)
	}
	hdr := segHeaderFixed + 4*segs
	stride := segSize + Overhead
	swapped := append([]byte(nil), blob...)
	copy(swapped[hdr:hdr+stride], blob[hdr+stride:hdr+2*stride])
	copy(swapped[hdr+stride:hdr+2*stride], blob[hdr:hdr+stride])
	if _, _, err := s.OpenSegmented(swapped, nil); err == nil {
		t.Fatal("reordered segments accepted")
	}
}

// A segment spliced in from a different blob (same sealer, same index,
// same size) must fail: the AAD binds the whole header, and the headers
// of different-length messages differ... for same-shape messages the
// caller AAD (the block layout) differs. Here both shapes match, so we
// give the two blobs different caller AADs, as the cluster layer always
// does (the AAD encodes the block origins).
func TestSegmentedSpliceAcrossBlobsDetected(t *testing.T) {
	const segSize = 256
	s := segSealer(t, segSize, 1)
	a, _, err := s.SealSegmented([][]byte{randBytes(t, 2*segSize)}, []byte("hdr A"))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.SealSegmented([][]byte{randBytes(t, 2*segSize)}, []byte("hdr B"))
	if err != nil {
		t.Fatal(err)
	}
	hdr := segHeaderFixed + 4*2
	stride := segSize + Overhead
	spliced := append([]byte(nil), a...)
	copy(spliced[hdr:hdr+stride], b[hdr:hdr+stride])
	if _, _, err := s.OpenSegmented(spliced, []byte("hdr A")); err == nil {
		t.Fatal("segment spliced from another blob accepted")
	}
}

func TestSegmentedRejectsForgedFraming(t *testing.T) {
	s := segSealer(t, 1024, 1)
	if _, _, err := s.OpenSegmented(nil, nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if _, _, err := s.OpenSegmented(make([]byte, 4), nil); err == nil {
		t.Fatal("short blob accepted")
	}
	// Plausible header with absurd count.
	bad := make([]byte, 64)
	copy(bad, []byte{0x45, 0x41, 0x47, 0x53, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := s.OpenSegmented(bad, nil); err == nil {
		t.Fatal("absurd segment count accepted")
	}
	// Declared lengths inconsistent with the blob size.
	blob, _, err := s.SealSegmented([][]byte{make([]byte, 100)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[segHeaderFixed+3]++ // bump declared length of segment 0
	if _, _, err := s.OpenSegmented(blob, nil); err == nil {
		t.Fatal("inconsistent framing accepted")
	}
}

// Nonces stay unique under concurrent segmented sealing from many
// goroutines on the shared pool (run with -race), and every one of them
// carries the sealer's fixed field.
func TestSegmentedConcurrentNonceAudit(t *testing.T) {
	const segSize = 512
	s := newTestSealer(t)
	s.SetSegmentSize(segSize)
	s.SetPool(SharedPool())
	const goroutines, iters = 8, 20
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = make(map[[NonceSize]byte]bool)
		dup  bool
	)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt := make([]byte, 3*segSize+g+1)
			for i := 0; i < iters; i++ {
				blob, _, err := s.SealSegmented([][]byte{pt}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				l, err := blobLayout(blob)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for k := 0; k < l.k; k++ {
					nonce := [NonceSize]byte(l.segment(blob, k)[:NonceSize])
					if !bytes.Equal(nonce[:len(s.fixed)], s.fixed[:]) {
						t.Errorf("segment %d nonce lacks the sealer's fixed field", k)
					}
					dup = dup || seen[nonce]
					seen[nonce] = true
				}
				mu.Unlock()
				if _, _, err := s.OpenSegmented(blob, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if dup {
		t.Fatal("duplicate nonce under concurrent segmented sealing")
	}
	sealed, opened := s.Counts()
	wantSegs := int64(goroutines * iters * 4) // 3*segSize+g+1 always spans 4 segments
	if sealed != wantSegs || opened != wantSegs {
		t.Fatalf("counts sealed=%d opened=%d, want %d each", sealed, opened, wantSegs)
	}
}

// The dedicated pool honors its cap and the shared pool is usable from
// many sealers at once.
func TestPoolRunCoversAllIndices(t *testing.T) {
	p := NewPool(3)
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	for _, n := range []int{0, 1, 2, 7, 64} {
		hit := make([]int32, n)
		var mu sync.Mutex
		p.Run(n, func(i int) {
			mu.Lock()
			hit[i]++
			mu.Unlock()
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestSegmentedLenMatchesBlob(t *testing.T) {
	s := segSealer(t, 100, 1)
	for _, n := range []int{0, 1, 99, 100, 101, 250, 1000} {
		blob, _, err := s.SealSegmented([][]byte{make([]byte, n)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(blob)) != SegmentedLen(int64(n), 100) {
			t.Fatalf("n=%d: len %d, SegmentedLen %d", n, len(blob), SegmentedLen(int64(n), 100))
		}
	}
}
