package seal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
//
// One codec serves two shapes of use. The bulk calls (SealSegmented,
// OpenSegmented) run its per-segment seal and open across the worker
// pool. The streaming views (SealStream, OpenStream) seal and open one
// segment at a time, so a transport can put segment i on the wire while
// segment i+1 is still being sealed, and open each segment in the
// plaintext buffer it lands in. The bytes are identical either way: a
// blob assembled from a stream's segments opens with OpenSegmented and
// vice versa.
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
	// maxStreamTotal bounds the plaintext size an OpenStream will
	// preallocate from an unauthenticated header (matches the transport's
	// 1 GiB frame ceiling).
	maxStreamTotal = 1 << 30
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

// SetPool points this Sealer's segmented-crypto operations at a worker
// pool; nil selects the process-wide shared pool (sized by GOMAXPROCS).
// Injecting one pool into many sealers is the multi-tenant wiring: their
// sessions share one crypto budget instead of each sizing its own.
// Configure before concurrent use. The Sealer never closes the pool; its
// owner does.
func (s *Sealer) SetPool(p *Pool) { s.pool = p }

// workerPool returns the pool segmented operations run on.
func (s *Sealer) workerPool() *Pool {
	if s.pool != nil {
		return s.pool
	}
	return SharedPool()
}

// Pool returns the worker pool this sealer's segmented operations run
// on — the one SetPool injected, else the process-wide shared pool.
// Callers use it to read utilization stats.
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

// segLayout is the geometry of a segmented blob: every segment holds
// segSize plaintext bytes except the last, which holds the rest. The
// sealer writes only this regular geometry and readLayout accepts
// nothing else, so every offset is arithmetic on both sides.
type segLayout struct {
	total   int64
	segSize int64
	k       int
	hdrLen  int
}

// newLayout is the geometry of a total-byte plaintext cut at size.
func newLayout(total, size int64) segLayout {
	k := SegmentCount(total, int(size))
	return segLayout{total: total, segSize: size, k: k, hdrLen: segHeaderFixed + 4*k}
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
	return newLayout(total, size)
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
	return newLayout(total, size)
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

// plainStart returns the offset of segment i's plaintext.
func (l segLayout) plainStart(i int) int64 { return int64(i) * l.segSize }

// plainLen returns segment i's plaintext length.
func (l segLayout) plainLen(i int) int64 {
	if i < l.k-1 {
		return l.segSize
	}
	return l.total - l.plainStart(l.k-1)
}

// segment returns segment i's sealed bytes (nonce || ciphertext || tag)
// within blob.
func (l segLayout) segment(blob []byte, i int) []byte {
	off := int64(l.hdrLen) + int64(i)*(l.segSize+Overhead)
	end := off + l.plainLen(i) + Overhead
	return blob[off:end:end]
}

// blobLen returns the size of the whole sealed blob.
func (l segLayout) blobLen() int64 { return int64(l.hdrLen) + l.total + int64(l.k)*Overhead }

// newBlob allocates a blob for l with its framing header written, from
// alloc when it is non-nil. The header and the segments tile the blob,
// so every byte of an alloc'd buffer with stale contents is overwritten.
func (l segLayout) newBlob(alloc func(n int) []byte) []byte {
	var out []byte
	if alloc != nil {
		out = alloc(int(l.blobLen()))
	} else {
		out = make([]byte, l.blobLen())
	}
	l.putHeader(out)
	return out
}

// putHeader writes l's framing header (magic, count, per-segment
// lengths) into the first hdrLen bytes of out and returns them.
func (l segLayout) putHeader(out []byte) []byte {
	binary.BigEndian.PutUint32(out[0:], segMagic)
	binary.BigEndian.PutUint32(out[4:], uint32(l.k))
	for i := 0; i < l.k; i++ {
		binary.BigEndian.PutUint32(out[segHeaderFixed+4*i:], uint32(l.plainLen(i)))
	}
	return out[:l.hdrLen]
}

// checkIndex reports an out-of-range segment index.
func (l segLayout) checkIndex(i int) error {
	if i < 0 || i >= l.k {
		return fmt.Errorf("seal: stream segment %d out of range [0,%d)", i, l.k)
	}
	return nil
}

// readLayout decodes the segmented framing header at the front of b, in
// place and without allocating: magic, count, and a length table that
// must describe the regular geometry the sealer writes. Nothing here is
// authenticated — every segment's AAD re-binds the header — so a forged
// header can shape the parse but never an accepted plaintext.
func readLayout(b []byte) (segLayout, error) {
	if len(b) < segHeaderFixed {
		return segLayout{}, fmt.Errorf("seal: segmented framing too short: %d bytes", len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != segMagic {
		return segLayout{}, errors.New("seal: not a segmented blob")
	}
	k := binary.BigEndian.Uint32(b[4:])
	if k == 0 || k > maxSegmentCount {
		return segLayout{}, fmt.Errorf("seal: segment count %d out of range", k)
	}
	l := segLayout{k: int(k), hdrLen: segHeaderFixed + 4*int(k)}
	if len(b) < l.hdrLen {
		return segLayout{}, fmt.Errorf("seal: segmented framing truncated in header: %d bytes, count %d needs %d",
			len(b), k, l.hdrLen)
	}
	lens := b[segHeaderFixed:l.hdrLen]
	l.segSize = int64(binary.BigEndian.Uint32(lens))
	for i := 1; i < l.k-1; i++ {
		if n := int64(binary.BigEndian.Uint32(lens[4*i:])); n != l.segSize {
			return segLayout{}, fmt.Errorf("seal: segment %d declares %d bytes, segment 0 %d", i, n, l.segSize)
		}
	}
	last := int64(binary.BigEndian.Uint32(lens[len(lens)-4:]))
	if last > l.segSize {
		return segLayout{}, fmt.Errorf("seal: last segment declares %d bytes, more than segment 0's %d", last, l.segSize)
	}
	l.total = int64(l.k-1)*l.segSize + last
	return l, nil
}

// blobLayout reads a whole blob's geometry and checks that the blob is
// exactly as long as its header declares.
func blobLayout(blob []byte) (segLayout, error) {
	l, err := readLayout(blob)
	if err == nil && int64(len(blob)) != l.blobLen() {
		err = fmt.Errorf("seal: segmented blob is %d bytes, framing declares %d", len(blob), l.blobLen())
	}
	return l, err
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

// sealSegment seals segment i of the concatenation of parts (prefix
// offsets poffs) into dst, exactly its sealed length, under the framing
// header hdr. A segment lying inside one part is encrypted straight from
// that part — no copy at all; one spanning a part boundary is first
// gathered into dst and encrypted in place. (Copy-then-encrypt-in-place
// costs ~40% throughput at 1MB on this host, so the zero-copy path
// matters even with one segment.)
func (s *Sealer) sealSegment(l segLayout, hdr, dst []byte, parts [][]byte, poffs []int64, aad []byte, i int) {
	pos, n := l.plainStart(i), l.plainLen(i)
	src := segmentSource(parts, poffs, pos, n)
	if src == nil {
		src = dst[NonceSize : NonceSize+n]
		gatherRange(src, parts, poffs, pos)
	}
	ap := segAAD(hdr, i, aad)
	s.sealInto(dst, src, *ap)
	putBuf(ap)
}

// openSegment authenticates and decrypts segment i of blob into its
// place in pt; any failure is ErrAuth.
func (s *Sealer) openSegment(l segLayout, blob, pt, aad []byte, i int) error {
	pos := l.plainStart(i)
	seg := l.segment(blob, i)
	ap := segAAD(blob[:l.hdrLen], i, aad)
	err := s.openInto(pt[pos:pos:pos+l.plainLen(i)], seg[:NonceSize], seg[NonceSize:], *ap)
	putBuf(ap)
	return err
}

// eachSegment runs fn for segments 0..k-1 across the worker pool and
// returns the first error. Its callers seal or open a single segment —
// most sealed messages are one — directly instead, without the closure
// and first-error bookkeeping, whose captured state escapes to the heap.
func (s *Sealer) eachSegment(k int, fn func(i int) error) error {
	var firstErr atomic.Pointer[error]
	s.workerPool().Run(k, func(i int) {
		if err := fn(i); err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// SealSegmented seals the concatenation of parts under the segmented
// framing, its segments concurrently on the worker pool. It returns the
// blob and the number of segments it holds; sealing cannot fail, so the
// error is always nil.
func (s *Sealer) SealSegmented(parts [][]byte, aad []byte) ([]byte, int, error) {
	blob, k := s.SealSegmentedWith(nil, parts, aad)
	return blob, k, nil
}

// SealSegmentedWith is SealSegmented with the blob drawn from alloc,
// which returns a buffer of exactly n bytes whose contents may be stale;
// nil allocates with make. The sealer writes every byte of it.
func (s *Sealer) SealSegmentedWith(alloc func(n int) []byte, parts [][]byte, aad []byte) ([]byte, int) {
	var small [16]int64
	offs := partOffsets(small[:0], parts)
	l := s.layout(offs[len(parts)])
	out := l.newBlob(alloc)
	hdr := out[:l.hdrLen]
	if l.k == 1 {
		s.sealSegment(l, hdr, l.segment(out, 0), parts, offs, aad, 0)
		return out, 1
	}
	heapOffs := partOffsets(make([]int64, 0, len(parts)+1), parts) // the closure's own: small stays on the stack
	s.eachSegment(l.k, func(i int) error {
		s.sealSegment(l, hdr, l.segment(out, i), parts, heapOffs, aad, i)
		return nil
	})
	return out, l.k
}

// OpenSegmented authenticates and decrypts a blob produced by
// SealSegmented with the same aad, verifying every segment (concurrently
// on the worker pool for multi-segment blobs). Any tampered segment,
// header field or AAD fails the whole open with ErrAuth. It returns the
// plaintext and the number of segments verified.
func (s *Sealer) OpenSegmented(blob, aad []byte) ([]byte, int, error) {
	l, err := blobLayout(blob)
	if err != nil {
		return nil, 0, err
	}
	pt := make([]byte, l.total)
	if l.k == 1 {
		err = s.openSegment(l, blob, pt, aad, 0)
	} else {
		err = s.eachSegment(l.k, func(i int) error {
			return s.openSegment(l, blob, pt, aad, i)
		})
	}
	if err != nil {
		return nil, 0, err
	}
	return pt, l.k, nil
}

// partOffsets appends to dst the prefix byte offsets of parts: offs[j]
// is the absolute plaintext position where parts[j] begins, with a final
// entry holding the total length.
func partOffsets(dst []int64, parts [][]byte) []int64 {
	offs := append(dst, 0)
	for _, p := range parts {
		offs = append(offs, offs[len(offs)-1]+int64(len(p)))
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

// SealStream seals one logical plaintext under the streaming segment
// plan one segment at a time, each into a buffer its caller owns: the
// framing header goes out first, then each segment as it is sealed, so a
// transport can put segment i on the wire while segment i+1 is still
// under AES-GCM. It keeps no sealed bytes: every AppendSegment seals
// afresh under a new nonce, so a stream has one consumer, which seals
// each segment once. The header followed by the K segments is the blob
// SealSegmented would have produced under the same plan. It is not safe
// for concurrent use.
type SealStream struct {
	s     *Sealer
	aad   []byte
	hdr   []byte
	l     segLayout
	parts [][]byte // plaintext sources
	poffs []int64
}

// NewSealStream prepares streaming sealing of the concatenation of
// parts under the streaming plan. The part buffers are read as each
// segment is sealed: the caller must not mutate them until the last
// one has been. It returns nil when the plan yields fewer than two
// segments — streaming a single segment buys nothing, so callers
// should fall back to SealSegmented.
func (s *Sealer) NewSealStream(parts [][]byte, aad []byte) *SealStream {
	offs := partOffsets(make([]int64, 0, len(parts)+1), parts)
	l := s.streamLayout(offs[len(parts)])
	if l.k < 2 {
		return nil
	}
	hdr := l.putHeader(make([]byte, l.hdrLen))
	return &SealStream{s: s, aad: append([]byte(nil), aad...), hdr: hdr, l: l, parts: parts, poffs: offs}
}

// K returns the stream's segment count.
func (st *SealStream) K() int { return st.l.k }

// Total returns the stream's plaintext length.
func (st *SealStream) Total() int64 { return st.l.total }

// Header returns the stream's segmented framing header (magic, count,
// per-segment lengths). Callers must treat it as read-only.
func (st *SealStream) Header() []byte { return st.hdr }

// AppendSegment seals segment i and appends its sealed bytes (nonce ||
// ciphertext || tag) to dst, returning the extended slice. It allocates
// only when dst lacks the room. Its only error is an index out of range.
func (st *SealStream) AppendSegment(dst []byte, i int) ([]byte, error) {
	if err := st.l.checkIndex(i); err != nil {
		return dst, err
	}
	n := int(st.l.plainLen(i)) + Overhead
	dst = slices.Grow(dst, n)
	st.s.sealSegment(st.l, st.hdr, dst[len(dst):len(dst)+n], st.parts, st.poffs, st.aad, i)
	return dst[:len(dst)+n], nil
}

// Segment seals segment i into a buffer of its own.
func (st *SealStream) Segment(i int) ([]byte, error) { return st.AppendSegment(nil, i) }

// OpenStream incrementally authenticates and decrypts a segmented blob
// as its segments arrive, in index order, on the one goroutine that
// receives them. It keeps no sealed bytes of its own: Slot hands the
// transport the next segment's destination, its nonce into a scratch
// field and its ciphertext||tag straight into the plaintext buffer at
// the segment's own plaintext offset, and OpenNext opens it there. The
// buffer is TagSize bytes longer than the plaintext, so the last
// segment's tag has room; every other tag lands where the next
// segment's ciphertext goes, which is why each segment must be opened
// before the next is filled. A stream whose sealed bytes are still
// needed (KeepSealed) instead lands each segment in the caller's blob
// and opens it from there into the plaintext buffer. Nothing here
// checks that a slot was filled: an unfilled slot simply fails
// authentication.
type OpenStream struct {
	s     *Sealer
	l     segLayout
	aad   []byte // header || u32 index of the next segment || caller aad
	pt    []byte // the plaintext, then TagSize bytes of slack
	blob  []byte // the kept sealed blob (KeepSealed), else nil
	nonce [NonceSize]byte
	next  int
}

// NewOpenStream prepares streaming open of a blob whose framing header
// is header, under the given AAD. The header is decoded by the same
// parser as a whole blob's, with its declared total bounded before any
// allocation, and later re-authenticated segment by segment.
func (s *Sealer) NewOpenStream(header, aad []byte) (*OpenStream, error) {
	l, err := readLayout(header)
	switch {
	case err != nil:
		return nil, err
	case len(header) != l.hdrLen:
		return nil, fmt.Errorf("seal: segment header is %d bytes, count %d needs %d", len(header), l.k, l.hdrLen)
	case l.total > maxStreamTotal:
		return nil, fmt.Errorf("seal: segmented stream declares %d plaintext bytes", l.total)
	}
	// Every segment's AAD is header || index || aad: one buffer, its
	// index rewritten as each segment opens.
	segAAD := make([]byte, l.hdrLen+4+len(aad))
	copy(segAAD, header)
	copy(segAAD[l.hdrLen+4:], aad)
	return &OpenStream{s: s, l: l, aad: segAAD, pt: make([]byte, l.total+TagSize)}, nil
}

// StreamSegments returns how many segments NewSealStream cuts an n-byte
// plaintext into, and so how many an OpenStream of it opens.
func (s *Sealer) StreamSegments(n int64) int { return s.streamLayout(n).k }

// K returns the stream's segment count.
func (os *OpenStream) K() int { return os.l.k }

// Total returns the stream's plaintext length.
func (os *OpenStream) Total() int64 { return os.l.total }

// Next returns the index of the segment the stream takes next: K once
// every segment is open.
func (os *OpenStream) Next() int { return os.next }

// SegmentLen returns the sealed length of segment i — exactly how many
// bytes the transport must deliver into its slot.
func (os *OpenStream) SegmentLen(i int) int { return int(os.l.plainLen(i)) + Overhead }

// SealedLen returns the length of the whole segmented blob the header
// declares: what KeepSealed takes.
func (os *OpenStream) SealedLen() int { return int(os.l.blobLen()) }

// KeepSealed makes the stream keep its sealed bytes in blob, which must
// be SealedLen bytes long, before the first segment arrives. The
// framing header goes into blob now and every segment as it lands, so
// once the last one is in, blob is the segmented blob OpenSegmented
// opens; each segment opens from there into the plaintext buffer.
func (os *OpenStream) KeepSealed(blob []byte) {
	if len(blob) != os.SealedLen() || os.next != 0 {
		panic(fmt.Sprintf("seal: KeepSealed given %d bytes at segment %d, want %d before the first",
			len(blob), os.next, os.SealedLen()))
	}
	copy(blob, os.aad[:os.l.hdrLen])
	os.blob = blob
}

// Slot returns where the next segment's sealed bytes go: its nonce, then
// its ciphertext||tag, SegmentLen(Next()) bytes between them. Next must
// be below K.
func (os *OpenStream) Slot() (nonce, body []byte) {
	i := os.next
	if os.blob != nil {
		seg := os.l.segment(os.blob, i)
		return seg[:NonceSize:NonceSize], seg[NonceSize:]
	}
	pos := os.l.plainStart(i)
	end := pos + os.l.plainLen(i) + TagSize
	return os.nonce[:], os.pt[pos:end:end]
}

// OpenNext authenticates and decrypts the filled next segment into its
// place in the plaintext and moves on to the segment after it. Any
// tampered byte, wrong index, wrong AAD or foreign segment fails with
// ErrAuth, and the stream stays at the failed segment.
func (os *OpenStream) OpenNext() error {
	i := os.next
	if err := os.l.checkIndex(i); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(os.aad[os.l.hdrLen:], uint32(i))
	nonce, body := os.Slot()
	dst := body[:0] // in place
	if os.blob != nil {
		pos := os.l.plainStart(i)
		dst = os.pt[pos : pos : pos+os.l.plainLen(i)]
	}
	if err := os.s.openInto(dst, nonce, body, os.aad); err != nil {
		return err
	}
	os.next++
	return nil
}

// Plaintext returns the decrypted payload, its length and capacity the
// plaintext's: the tag slack is out of its reach. Valid once every
// segment has been opened successfully.
func (os *OpenStream) Plaintext() []byte { return os.pt[:os.l.total:os.l.total] }
