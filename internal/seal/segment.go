package seal

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
)

// The segmented framing splits one logical plaintext into k independently
// sealed segments so the GCM work parallelizes across cores — the
// CryptMPI technique for beating the single-core throughput ceiling —
// while still authenticating as a single unit:
//
//	u32 magic "EAGS"
//	u32 segment count k
//	u32 plaintext length of each segment (k entries)
//	k sealed segments, each nonce || ciphertext || tag
//
// Every segment's AAD is header || u32 segment index || caller AAD, so
// tampering with the header (count or any length), reordering segments,
// splicing segments between blobs, or altering the caller's AAD breaks
// authentication of the whole blob, exactly as a single GCM call would.
const (
	segMagic = 0x45414753 // "EAGS"
	// DefaultSegmentSize is the split size for segmented sealing:
	// payloads at or above it are cut into DefaultSegmentSize pieces.
	// 64 KiB segments keep per-segment overhead (28 B + 4 B header
	// entry) under 0.05% while giving a 1 MiB payload 16-way
	// parallelism.
	DefaultSegmentSize = 64 << 10
	// maxSegmentSize bounds a configured segment size (1 GiB) so
	// per-segment lengths always fit the u32 header fields.
	maxSegmentSize = 1 << 30
	// maxSegmentCount bounds the segment count a decoder will accept
	// before allocating.
	maxSegmentCount = 1 << 20
	// segHeaderFixed is the magic + count prefix of the header.
	segHeaderFixed = 8
	// segSizeQuantum rounds adaptive segment sizes so slots stay
	// cache-line and page friendly.
	segSizeQuantum = 4 << 10
	// MinStreamSegment floors the streaming split size: segments this
	// small amortize their 32 B framing overhead to 0.4% and match the
	// libhear pipelining block size.
	MinStreamSegment = 8 << 10
	// streamTargetSegments is how many segments the streaming plan aims
	// for: enough sub-frames to overlap crypto with transport, few
	// enough that per-segment framing stays negligible.
	streamTargetSegments = 8
)

// SetSegmentSize configures the segmented-seal split size in bytes;
// n <= 0 restores the adaptive default plan, which splits at
// DefaultSegmentSize but caps the segment count by the worker pool's
// parallelism (oversplitting a large payload on a small pool only buys
// scheduling thrash, never throughput). An explicitly configured size
// is honored exactly. Configure before concurrent use.
func (s *Sealer) SetSegmentSize(n int) {
	if n <= 0 {
		s.segSize = 0
		return
	}
	if n > maxSegmentSize {
		n = maxSegmentSize
	}
	s.segSize = n
}

// SegmentSize returns the effective segmented-seal split size.
func (s *Sealer) SegmentSize() int {
	if s.segSize <= 0 {
		return DefaultSegmentSize
	}
	return s.segSize
}

// SetWorkers bounds this Sealer's segmented-crypto parallelism with a
// dedicated pool of n workers; n <= 0 restores the process-wide shared
// pool (sized by GOMAXPROCS). Configure before concurrent use.
func (s *Sealer) SetWorkers(n int) {
	if n <= 0 {
		s.pool = nil
		return
	}
	s.pool = NewPool(n)
}

// SetPool points this Sealer's segmented-crypto operations at an
// externally owned worker pool — the multi-tenant wiring, where many
// sessions' sealers share one process-global crypto budget instead of
// each sizing its own. nil restores the process-wide shared pool.
// Configure before concurrent use. The Sealer never closes an injected
// pool; its owner does.
func (s *Sealer) SetPool(p *Pool) { s.pool = p }

// workerPool returns the pool segmented operations run on.
func (s *Sealer) workerPool() *Pool {
	if s.pool != nil {
		return s.pool
	}
	return SharedPool()
}

// Pool returns the worker pool this sealer's segmented operations run
// on — its dedicated pool when SetWorkers configured one, else the
// process-wide shared pool. Callers use it to read utilization stats.
func (s *Sealer) Pool() *Pool { return s.workerPool() }

// SegmentCount returns how many segments an n-byte plaintext splits into
// under the given segment size (every plaintext has at least one).
func SegmentCount(n int64, segSize int) int {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if n <= int64(segSize) {
		return 1
	}
	return int((n + int64(segSize) - 1) / int64(segSize))
}

// SegmentedLen returns the sealed size of an n-byte plaintext under the
// segmented framing with the given segment size.
func SegmentedLen(n int64, segSize int) int64 {
	k := int64(SegmentCount(n, segSize))
	return segHeaderFixed + 4*k + n + k*Overhead
}

// segLayout captures the regular geometry of a segmented blob: all
// segments hold segSize plaintext bytes except the last.
type segLayout struct {
	total   int64
	segSize int64
	k       int
	hdrLen  int
}

func (s *Sealer) layout(total int64) segLayout {
	size := int64(s.SegmentSize())
	if s.segSize <= 0 {
		// Adaptive plan: cap the segment count at what the pool can
		// actually run concurrently (plus the caller, with one round of
		// lookahead). More segments than that is pure dispatch thrash: a
		// 2 MB seal cut into 32 segments ran at 0.42x of the unsplit
		// seal on a single worker. With one schedulable CPU no two segments can
		// ever run concurrently, so the plan does not split at all.
		maxK := 2*s.workerPool().Size() + 2
		if runtime.GOMAXPROCS(0) == 1 {
			maxK = 1
		}
		if k := SegmentCount(total, int(size)); k > maxK {
			size = roundUpQuantum((total + int64(maxK) - 1) / int64(maxK))
		}
	}
	k := SegmentCount(total, int(size))
	return segLayout{total: total, segSize: size, k: k, hdrLen: segHeaderFixed + 4*k}
}

// streamLayout is the segment plan for pipelined (streaming) sealing:
// it targets streamTargetSegments sub-frames so the transport has
// enough pieces to overlap with, clamped to [MinStreamSegment,
// DefaultSegmentSize]. An explicitly configured segment size wins.
func (s *Sealer) streamLayout(total int64) segLayout {
	if s.segSize > 0 {
		return s.layout(total)
	}
	size := roundUpQuantum((total + streamTargetSegments - 1) / streamTargetSegments)
	if size < MinStreamSegment {
		size = MinStreamSegment
	}
	if size > DefaultSegmentSize {
		size = DefaultSegmentSize
	}
	k := SegmentCount(total, int(size))
	return segLayout{total: total, segSize: size, k: k, hdrLen: segHeaderFixed + 4*k}
}

// roundUpQuantum rounds n up to the segment-size quantum.
func roundUpQuantum(n int64) int64 {
	q := int64(segSizeQuantum)
	n = (n + q - 1) / q * q
	if n > maxSegmentSize {
		n = maxSegmentSize
	}
	return n
}

// plainLen returns segment i's plaintext length.
func (l segLayout) plainLen(i int) int64 {
	if i < l.k-1 {
		return l.segSize
	}
	return l.total - int64(l.k-1)*l.segSize
}

// start returns the byte offset of segment i's sealed bytes in the blob.
func (l segLayout) start(i int) int64 {
	return int64(l.hdrLen) + int64(i)*(l.segSize+Overhead)
}

// segAAD assembles the AAD for segment i into a pooled scratch buffer:
// header || u32 index || caller aad.
func segAAD(header []byte, i int, aad []byte) *[]byte {
	bp := getBuf(len(header) + 4 + len(aad))
	buf := *bp
	n := copy(buf, header)
	binary.BigEndian.PutUint32(buf[n:], uint32(i))
	copy(buf[n+4:], aad)
	return bp
}

// SealSegmented seals the concatenation of parts under the segmented
// framing. A segment whose plaintext lies inside a single part is
// encrypted straight from that part into the blob — no copy at all; only
// segments spanning a part boundary are first gathered into their blob
// slot and encrypted in place. (The copy-then-encrypt-in-place path
// costs ~40% throughput at 1MB on this host, so the zero-copy fast path
// matters even with one segment.) Multi-segment payloads are processed
// concurrently on the worker pool. It returns the blob and the number of
// segments it holds.
func (s *Sealer) SealSegmented(parts [][]byte, aad []byte) ([]byte, int, error) {
	offs := partOffsets(parts)
	total := offs[len(parts)]
	l := s.layout(total)
	out := make([]byte, SegmentedLen(total, int(l.segSize)))
	writeSegHeader(out, l)
	header := out[:l.hdrLen]

	var firstErr atomic.Pointer[error]
	s.workerPool().Run(l.k, func(i int) {
		n := l.plainLen(i)
		off := l.start(i)
		end := off + int64(SealedLen(int(n)))
		src := segmentSource(parts, offs, int64(i)*l.segSize, n)
		if src == nil {
			src = out[off+NonceSize : off+NonceSize+n]
			gatherRange(src, parts, offs, int64(i)*l.segSize)
		}
		ap := segAAD(header, i, aad)
		err := s.sealInto(out[off:end:end], src, *ap)
		putBuf(ap)
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return nil, 0, *ep
	}
	return out, l.k, nil
}

// partOffsets returns prefix byte offsets of parts: offs[j] is the
// absolute plaintext position where parts[j] begins, with a final entry
// holding the total length.
func partOffsets(parts [][]byte) []int64 {
	offs := make([]int64, len(parts)+1)
	for j, p := range parts {
		offs[j+1] = offs[j] + int64(len(p))
	}
	return offs
}

// segmentSource returns the one source slice holding plaintext range
// [pos, pos+n), or nil when the range crosses a part boundary.
func segmentSource(parts [][]byte, offs []int64, pos, n int64) []byte {
	for j := range parts {
		if pos >= offs[j] && pos+n <= offs[j+1] {
			lo := pos - offs[j]
			return parts[j][lo : lo+n : lo+n]
		}
	}
	return nil
}

// gatherRange copies len(dst) plaintext bytes starting at absolute
// position pos of the parts concatenation into dst.
func gatherRange(dst []byte, parts [][]byte, offs []int64, pos int64) {
	for j := range parts {
		if len(dst) == 0 {
			return
		}
		if offs[j+1] <= pos {
			continue
		}
		n := copy(dst, parts[j][pos-offs[j]:])
		dst = dst[n:]
		pos += int64(n)
	}
}

// parseSegmented validates a segmented blob's framing defensively and
// returns its header, per-segment lengths and total plaintext size. All
// framing fields are re-authenticated per segment via the AAD, so a
// forged header can shape the parse but never an accepted plaintext.
func parseSegmented(blob []byte) (header []byte, lens []int64, total int64, err error) {
	if len(blob) < segHeaderFixed {
		return nil, nil, 0, fmt.Errorf("seal: segmented blob too short: %d bytes", len(blob))
	}
	if binary.BigEndian.Uint32(blob[0:]) != segMagic {
		return nil, nil, 0, fmt.Errorf("seal: not a segmented blob")
	}
	k := binary.BigEndian.Uint32(blob[4:])
	if k == 0 || k > maxSegmentCount {
		return nil, nil, 0, fmt.Errorf("seal: segment count %d out of range", k)
	}
	hdrLen := int64(segHeaderFixed) + 4*int64(k)
	if int64(len(blob)) < hdrLen {
		return nil, nil, 0, fmt.Errorf("seal: segmented blob truncated in header")
	}
	lens = make([]int64, k)
	for i := range lens {
		lens[i] = int64(binary.BigEndian.Uint32(blob[segHeaderFixed+4*i:]))
		total += lens[i]
	}
	want := hdrLen + total + int64(k)*Overhead
	if int64(len(blob)) != want {
		return nil, nil, 0, fmt.Errorf("seal: segmented blob is %d bytes, framing declares %d", len(blob), want)
	}
	return blob[:hdrLen], lens, total, nil
}

// writeSegHeader writes the segmented framing header — magic, count,
// per-segment plaintext lengths — into out under layout l.
func writeSegHeader(out []byte, l segLayout) {
	binary.BigEndian.PutUint32(out[0:], segMagic)
	binary.BigEndian.PutUint32(out[4:], uint32(l.k))
	for i := 0; i < l.k; i++ {
		binary.BigEndian.PutUint32(out[segHeaderFixed+4*i:], uint32(l.plainLen(i)))
	}
}

// CheckSegmented validates a segmented blob's framing — magic, count,
// and per-segment lengths against the blob's actual size — without
// touching the cryptography. Transports use it to reject a malformed
// chunk at arrival as an operation-scoped failure instead of carrying
// it to a decrypt that was always going to fail. Nothing about the
// blob is authenticated; a well-framed forgery still dies in GCM.
func CheckSegmented(blob []byte) error {
	_, _, _, err := parseSegmented(blob)
	return err
}

// BlobSegments reports how many segments a segmented blob declares, or
// 0 if blob does not carry the segmented framing. It is a framing peek
// only — nothing about the blob is authenticated.
func BlobSegments(blob []byte) int {
	if _, lens, _, err := parseSegmented(blob); err == nil {
		return len(lens)
	}
	return 0
}

// OpenSegmented authenticates and decrypts a blob produced by
// SealSegmented with the same aad, verifying every segment (concurrently
// on the worker pool for multi-segment blobs). Any tampered segment,
// header field or AAD fails the whole open with ErrAuth. It returns the
// plaintext and the number of segments verified.
func (s *Sealer) OpenSegmented(blob, aad []byte) ([]byte, int, error) {
	header, lens, total, err := parseSegmented(blob)
	if err != nil {
		return nil, 0, err
	}
	k := len(lens)
	pt := make([]byte, total)
	// Segment starts: lens may be irregular in a forged blob, so compute
	// real offsets instead of assuming the sealer's regular geometry.
	blobOff := make([]int64, k)
	ptOff := make([]int64, k)
	off, po := int64(len(header)), int64(0)
	for i, n := range lens {
		blobOff[i], ptOff[i] = off, po
		off += n + Overhead
		po += n
	}
	var firstErr atomic.Pointer[error]
	s.workerPool().Run(k, func(i int) {
		n := lens[i]
		ap := segAAD(header, i, aad)
		dst := pt[ptOff[i] : ptOff[i] : ptOff[i]+n]
		err := s.openInto(dst, blob[blobOff[i]:blobOff[i]+n+Overhead], *ap)
		putBuf(ap)
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return nil, 0, ErrAuth
	}
	return pt, k, nil
}
