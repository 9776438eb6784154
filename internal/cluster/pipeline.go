// Intra-collective pipelining: the chan and tcp engines can overlap
// crypto with transport inside one operation by streaming a chunk's
// sealed segments onto the wire one at a time (internal/seal's
// SealStream/OpenStream, internal/wire's segment sub-frames). A
// multi-chunk message becomes one envelope sequence interleaving a
// per-chunk segment stream for every qualifying sealed chunk, plus
// inline sub-frames for the chunks too small to stream; the receiver
// assembles the chunks back into the message in order. This file holds
// the engine-shared pieces: the pipelining constants, the
// per-message send plan, the receive-side message and stream assembly
// with the op-wide open window, and the in-flight stream table of the
// TCP demux.
package cluster

import (
	"sync"

	"encag/internal/block"
	"encag/internal/seal"
)

const (
	// DefaultSegmentWindow is the receive-side in-flight segment window:
	// how many segments of one operation may be opening concurrently
	// before further arrivals are opened inline on the transport
	// goroutine — which stops it reading, exerting backpressure on the
	// sender. The window is an op-wide budget: all concurrent per-chunk
	// streams of an operation draw from the same window, so a
	// many-chunk message cannot multiply that concurrency.
	DefaultSegmentWindow = 4
	// defaultMinStreamBytes is the smallest chunk plaintext worth
	// streaming; below it the fixed per-sub-frame overhead outweighs the
	// overlap. The threshold is compared against the chunk's plaintext
	// length (block header sum), never the sealed blob length, so the
	// qualification does not drift with seal framing overhead.
	defaultMinStreamBytes = 16 << 10
)

// chunkSend is one chunk's entry in a send plan: either a segment
// stream (stream non-nil; chunk carries the metadata) or an inline
// chunk shipped whole in a single sub-frame.
type chunkSend struct {
	stream *seal.SealStream
	chunk  block.Chunk
}

// sendPlan is a message's pipelined send schedule: every chunk in
// order, each either streamed segment-by-segment or sent inline.
type sendPlan struct {
	chunks  []chunkSend
	streams int    // chunks with a non-nil stream
	sid     uint32 // per-operation stream id, stamped by isend
}

// streamsForSend builds msg's pipelined send plan, or returns nil when
// the message should travel the legacy whole-frame path. Each sealed
// chunk qualifies for streaming if it carries a pending SealStream from
// Encrypt, or is a forwarded segmented blob whose plaintext is at least
// defaultMinStreamBytes and that splits into ≥2 segments along its recorded
// boundaries; every other chunk — plaintext, small, or unsplittable —
// ships inline inside the same envelope sequence. A plan with zero
// streams is pointless, so nil is returned and the caller materializes.
func (o *opRuntime) streamsForSend(msg block.Message) *sendPlan {
	if !o.pipe || len(msg.Chunks) == 0 {
		return nil
	}
	plan := &sendPlan{chunks: make([]chunkSend, len(msg.Chunks))}
	for i, c := range msg.Chunks {
		plan.chunks[i] = chunkSend{chunk: c}
		if !c.Enc {
			continue
		}
		if c.Stream != nil {
			plan.chunks[i].stream = c.Stream
			plan.streams++
			continue
		}
		if c.Payload == nil || c.PlainLen() < defaultMinStreamBytes {
			continue
		}
		st, err := seal.StreamFromBlob(c.Payload)
		if err != nil || st.K() < 2 {
			continue
		}
		plan.chunks[i].stream = st
		plan.streams++
	}
	if plan.streams == 0 {
		return nil
	}
	return plan
}

// streamBlob indirects SealStream.Blob so the materialize error-path
// regression test can inject a failure (the seal layer's only organic
// Blob error is nonce-source exhaustion, which a test cannot trigger);
// production code never overrides it.
var streamBlob = (*seal.SealStream).Blob

// materializeMessage forces any lazily-sealed chunk to its blob form so
// the message can travel the non-streaming paths (whole-message frames,
// shared memory, local delivery). The chunk slice is copied only when a
// pending stream is actually present. On error the returned message is
// zero: a mid-loop Blob failure leaves the pending streams in an
// unusable sealed state, so neither the half-materialized copy nor the
// original may be shipped — callers must treat the error as fatal for
// the message.
func materializeMessage(msg block.Message) (block.Message, error) {
	for i, c := range msg.Chunks {
		if c.Stream == nil {
			continue
		}
		out := msg
		out.Chunks = append([]block.Chunk(nil), msg.Chunks...)
		for j := i; j < len(out.Chunks); j++ {
			cj := &out.Chunks[j]
			if cj.Stream == nil {
				continue
			}
			blob, err := streamBlob(cj.Stream)
			if err != nil {
				return block.Message{}, err
			}
			cj.Payload = blob
			cj.Stream = nil
		}
		return out, nil
	}
	return msg, nil
}

// openWindow is an operation's shared budget of concurrently-opening
// segments. Every receive stream of the op draws from the same window,
// so N concurrent per-chunk streams cannot multiply the configured
// concurrency N-fold; arrivals that cannot acquire a slot are opened
// inline on the transport goroutine, preserving backpressure.
type openWindow struct {
	mu   sync.Mutex
	max  int
	used int
}

func newOpenWindow(max int) *openWindow { return &openWindow{max: max} }

func (w *openWindow) tryAcquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.used >= w.max {
		return false
	}
	w.used++
	return true
}

func (w *openWindow) release() {
	w.mu.Lock()
	w.used--
	w.mu.Unlock()
}

// streamKey identifies one in-flight receive message on the TCP demux:
// stream ids are allocated per operation, so the (src, dst, id) triple
// is unique among its live pipelined messages; the chunk index in each
// sub-frame selects the per-chunk stream within the message.
type streamKey struct {
	src, dst int
	id       uint32
}

// streamTable tracks the in-flight pipelined messages the TCP demux is
// assembling for one operation. The zero value is an empty table.
type streamTable struct {
	mu sync.Mutex
	m  map[streamKey]*msgRecv
}

func (t *streamTable) get(k streamKey) *msgRecv {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *streamTable) put(k streamKey, mr *msgRecv) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[streamKey]*msgRecv)
	}
	t.m[k] = mr
	t.mu.Unlock()
}

func (t *streamTable) drop(k streamKey) {
	t.mu.Lock()
	delete(t.m, k)
	t.mu.Unlock()
}

// msgRecv assembles one incoming pipelined message: chunks arrive as
// per-chunk segment streams and inline sub-frames, in any interleaving
// the sender chose, and are slotted by chunk index. When every chunk is
// filled the whole message is delivered at the envelope sequence the
// engine reserved at creation; the first failure on any chunk fails the
// message exactly once.
type msgRecv struct {
	deliver func(block.Message)
	fail    func(error)

	mu        sync.Mutex
	chunks    []block.Chunk
	filled    []bool
	remaining int
	streams   map[uint32]*streamRecv
	failed    bool
}

func newMsgRecv(n int, deliver func(block.Message), fail func(error)) *msgRecv {
	return &msgRecv{
		deliver:   deliver,
		fail:      fail,
		chunks:    make([]block.Chunk, n),
		filled:    make([]bool, n),
		remaining: n,
		streams:   make(map[uint32]*streamRecv),
	}
}

// chunkStream returns the live per-chunk receive stream for chunk ci,
// or nil when none has been registered (or it has already delivered).
func (mr *msgRecv) chunkStream(ci uint32) *streamRecv {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.streams[ci]
}

// addStream registers a per-chunk receive stream. It reports false for
// an out-of-range chunk index, a chunk already filled, or a chunk that
// already has a live stream — all protocol violations, since the
// sequence gates dedup transport-level resends.
func (mr *msgRecv) addStream(ci uint32, sr *streamRecv) bool {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if int(ci) >= len(mr.chunks) || mr.filled[ci] {
		return false
	}
	if _, ok := mr.streams[ci]; ok {
		return false
	}
	mr.streams[ci] = sr
	return true
}

// setChunk fills chunk ci, delivering the assembled message when it was
// the last one outstanding. It reports false for an out-of-range index
// or a duplicate fill (protocol violations); fills after a failure are
// absorbed silently so a late-opening sibling stream cannot resurrect a
// failed message.
func (mr *msgRecv) setChunk(ci uint32, c block.Chunk) bool {
	mr.mu.Lock()
	if mr.failed {
		mr.mu.Unlock()
		return true
	}
	if int(ci) >= len(mr.chunks) || mr.filled[ci] {
		mr.mu.Unlock()
		return false
	}
	mr.chunks[ci] = c
	mr.filled[ci] = true
	delete(mr.streams, ci)
	mr.remaining--
	done := mr.remaining == 0
	mr.mu.Unlock()
	if done {
		mr.deliver(block.Message{Chunks: mr.chunks})
	}
	return true
}

// failOnce invokes the failure hook exactly once, no matter how many of
// the message's chunk streams fail.
func (mr *msgRecv) failOnce(err error) {
	mr.mu.Lock()
	if mr.failed {
		mr.mu.Unlock()
		return
	}
	mr.failed = true
	mr.mu.Unlock()
	mr.fail(err)
}

// streamRecv assembles one incoming per-chunk segment stream: the
// transport fills segment slots as sub-frames land and calls accept,
// which opens (authenticates + decrypts) each segment — concurrently
// while the op-wide open window has room. Arrivals beyond the window
// are opened inline on the transport goroutine, which stops it reading
// and so backpressures the sender through TCP flow control (the chan
// engine shifts the work onto its send loop, bounding the same way).
// The first authentication failure fails the whole stream closed; once
// every segment has opened, the assembled chunk — blob and pre-opened
// plaintext — is delivered.
type streamRecv struct {
	os      *seal.OpenStream
	blocks  []block.Block
	tag     int
	win     *openWindow
	lm      *liveMetrics
	deliver func(block.Chunk)
	fail    func(error)

	mu     sync.Mutex
	seen   []bool
	done   int
	failed bool
}

func newStreamRecv(os *seal.OpenStream, blocks []block.Block, tag int, win *openWindow,
	lm *liveMetrics, deliver func(block.Chunk), fail func(error)) *streamRecv {
	return &streamRecv{
		os:      os,
		blocks:  blocks,
		tag:     tag,
		win:     win,
		lm:      lm,
		deliver: deliver,
		fail:    fail,
		seen:    make([]bool, os.K()),
	}
}

// markSeen records segment i's arrival, reporting whether it is a
// duplicate (a protocol violation: the sequence gates already dedup
// transport-level resends).
func (sr *streamRecv) markSeen(i int) (dup bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.seen[i] {
		return true
	}
	sr.seen[i] = true
	return false
}

// accept hands the filled segment i to the open machinery. The caller
// must have fully filled SegmentSlot(i) first; a slot is filled and
// opened by exactly one accept call (markSeen enforces that), so
// distinct segments proceed concurrently on disjoint slots.
func (sr *streamRecv) accept(i int) {
	sr.mu.Lock()
	if sr.failed {
		sr.mu.Unlock()
		return
	}
	sr.mu.Unlock()
	if sr.win.tryAcquire() {
		if sr.lm != nil {
			sr.lm.pipePendingOpens.Inc()
		}
		go sr.open(i, true)
		return
	}
	if sr.lm != nil {
		sr.lm.pipeInlineOpens.Inc()
	}
	sr.open(i, false)
}

func (sr *streamRecv) open(i int, async bool) {
	err := sr.os.OpenSegment(i)
	if async {
		sr.win.release()
		if sr.lm != nil {
			sr.lm.pipePendingOpens.Dec()
		}
	}
	sr.mu.Lock()
	if sr.failed {
		sr.mu.Unlock()
		return
	}
	if err != nil {
		sr.failed = true
		sr.mu.Unlock()
		sr.fail(err)
		return
	}
	sr.done++
	complete := sr.done == sr.os.K()
	sr.mu.Unlock()
	if !complete {
		return
	}
	if sr.lm != nil {
		sr.lm.pipeStreamSegments.Observe(int64(sr.os.K()))
	}
	sr.deliver(block.Chunk{
		Enc:     true,
		Blocks:  sr.blocks,
		Tag:     sr.tag,
		Payload: sr.os.Blob(),
		Opened:  sr.os.Plaintext(),
	})
}
