package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/wire"
)

// WireSniffer captures the raw bytes written to inter-node connections —
// the exact view a network eavesdropper gets. Tests scan the capture for
// plaintext patterns: finding none (while a plaintext-algorithm control
// run does expose them) demonstrates the security property on real
// sockets, not just at the audit layer. On a persistent session the
// capture is cumulative over every collective run on the mesh.
type WireSniffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	total   int64
	capped  bool
	MaxKeep int64 // capture cap in bytes (default 8 MiB)
}

func (s *WireSniffer) record(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += int64(len(p))
	max := s.MaxKeep
	if max == 0 {
		max = 8 << 20
	}
	if int64(s.buf.Len()) < max {
		room := max - int64(s.buf.Len())
		if int64(len(p)) > room {
			p = p[:room]
			s.capped = true
		}
		s.buf.Write(p)
	} else {
		s.capped = true
	}
}

// Bytes returns the captured inter-node wire bytes (possibly truncated
// at MaxKeep).
func (s *WireSniffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// Total returns how many inter-node bytes crossed the wire in total.
func (s *WireSniffer) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Truncated reports whether the capture hit MaxKeep and dropped bytes.
func (s *WireSniffer) Truncated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capped
}

// Contains reports whether needle appears in the captured wire bytes.
func (s *WireSniffer) Contains(needle []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Contains(s.buf.Bytes(), needle)
}

// sniffConn wraps the write side of an inter-node connection. Only the
// bytes the underlying connection actually accepted are recorded, so a
// failed or short write cannot inflate the eavesdropper's tally.
type sniffConn struct {
	net.Conn
	sniffer *WireSniffer
}

func (c *sniffConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.sniffer.record(p[:n])
	}
	return n, err
}

const (
	// sendRetries bounds reconnect attempts for one frame after a
	// transient send failure.
	sendRetries = 4
	// sendBackoffBase is the first reconnect backoff; it doubles per
	// attempt (2, 4, 8, 16 ms).
	sendBackoffBase = 2 * time.Millisecond
)

// tcpLink is the sender-side state of one directed connection. The
// owning rank's send scheduler goroutine is the only writer, but
// teardown closes the current conn concurrently, so conn access goes
// through the mutex. Links — and their monotone sequence counters —
// live as long as the mesh, so frame numbering continues across the
// collectives of a session and the receiver's sequence gates stay valid
// run-to-run, even with frames of concurrent operations interleaved on
// the link.
type tcpLink struct {
	mu     sync.Mutex
	conn   net.Conn
	closed bool   // set by close: a conn dialed after it is closed at once
	seq    uint64 // next frame sequence number
	// fw is the link's reusable frame encoder. Only the owning rank's
	// send scheduler writes frames, so it needs no lock; steady-state
	// sends reuse its buffer instead of allocating one per frame.
	fw *wire.FrameWriter
}

func (l *tcpLink) get() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// replace installs a freshly dialed conn, closing the previous one. A
// sender can dial before teardown closes the listener and install the
// conn after teardown closed the link; that conn is closed at once, or
// its reader would wait on it forever and the mesh would never close.
func (l *tcpLink) replace(c net.Conn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.Close()
		return
	}
	old := l.conn
	l.conn = c
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

func (l *tcpLink) nextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.seq
	l.seq++
	return s
}

func (l *tcpLink) issued() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

func (l *tcpLink) close() {
	l.mu.Lock()
	c := l.conn
	l.closed = true
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// seqGate deduplicates frames of one directed pair across reconnects: a
// frame resent after a transient failure may arrive twice (once through
// the old connection, once through the new), and must be delivered once.
// Gates persist for the mesh lifetime — sequence numbers never reset, so
// dedup works across the (possibly concurrent) collectives of a session
// too: the gate orders the link's byte stream, the op-id routes each
// admitted frame to its operation.
type seqGate struct {
	mu   sync.Mutex
	next uint64
}

// admit reports whether a frame with the given sequence number should be
// delivered, and advances the gate past it.
func (g *seqGate) admit(seq uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq < g.next {
		return false
	}
	g.next = seq + 1
	return true
}

func (g *seqGate) horizon() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

// tcpMesh is the session's link over TCP: one listener and accept loop
// per rank, a dedicated dialed connection (a tcpLink) per ordered rank
// pair (hello handshake done once), per-pair sequence gates and the
// session-lifetime wire sniffer. It outlives every collective until the
// session closes or the transport itself becomes unrecoverable
// (ErrMeshDown).
type tcpMesh struct {
	spec      Spec
	lm        *liveMetrics
	links     [][]*tcpLink // [src][dst], nil on the diagonal
	addrs     []string     // listener address per rank, for reconnects
	listeners []net.Listener
	gates     [][]*seqGate // [dst][src]
	sniff     *WireSniffer
	// reg maps live op-ids to their runtimes: connection readers demux
	// each admitted frame to the runtime registered under the frame's
	// op-id and drop frames of retired operations (stragglers).
	reg       *opRegistry
	readersWG sync.WaitGroup
	downOnce  sync.Once

	// tracked holds the live readers' progress trackers, so the mesh can
	// diagnose a reader starved mid-frame by length-field corruption.
	trackMu sync.Mutex
	tracked map[*readTracker]struct{}

	errMu sync.Mutex
	err   error // ErrMeshDown-wrapped cause once the mesh is broken
}

func (m *tcpMesh) track(t *readTracker) {
	m.trackMu.Lock()
	m.tracked[t] = struct{}{}
	m.trackMu.Unlock()
}

func (m *tcpMesh) untrack(t *readTracker) {
	m.trackMu.Lock()
	delete(m.tracked, t)
	m.trackMu.Unlock()
}

// readerStalled reports a live reader stuck mid-frame with no byte
// progress for readerStallAfter or longer — the signature of a
// corrupted length or count field, which leaves the decoder silently
// swallowing every later frame on the stream. Checked (with gateDesync)
// when an operation fails, to decide whether the mesh is unrecoverable.
func (m *tcpMesh) readerStalled() error {
	m.trackMu.Lock()
	defer m.trackMu.Unlock()
	for t := range m.tracked {
		if d, mid := t.starved(); mid && d >= readerStallAfter {
			return fmt.Errorf("frame stream %d->%d starved mid-frame for %v (corrupted length field?)",
				t.src, t.dst, d.Round(time.Millisecond))
		}
	}
	return nil
}

// newTCPMesh listens, starts the accept loops and dials the full O(p^2)
// connection mesh — the setup cost a session pays exactly once.
func newTCPMesh(spec Spec, lm *liveMetrics, reg *opRegistry) (*tcpMesh, error) {
	m := &tcpMesh{
		spec:      spec,
		lm:        lm,
		links:     make([][]*tcpLink, spec.P),
		addrs:     make([]string, spec.P),
		listeners: make([]net.Listener, spec.P),
		gates:     make([][]*seqGate, spec.P),
		sniff:     &WireSniffer{},
		reg:       reg,
		tracked:   make(map[*readTracker]struct{}),
	}
	for r := 0; r < spec.P; r++ {
		m.links[r] = make([]*tcpLink, spec.P)
		m.gates[r] = make([]*seqGate, spec.P)
		for s := 0; s < spec.P; s++ {
			m.gates[r][s] = &seqGate{}
			if r != s {
				m.links[r][s] = &tcpLink{fw: wire.NewFrameWriter()}
			}
		}
	}
	// One listener per rank, each with a persistent accept loop: beyond
	// the initial p-1 connections it keeps accepting so that a sender
	// recovering from a transient fault can reconnect and re-handshake.
	for r := 0; r < spec.P; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.close()
			return nil, &RankError{Rank: r, Peer: -1, Op: "listen", Err: err}
		}
		m.listeners[r] = l
		m.addrs[r] = l.Addr().String()
	}
	for d := 0; d < spec.P; d++ {
		d := d
		m.readersWG.Add(1)
		go func() {
			defer m.readersWG.Done()
			// last[src] is closed when the reader of src's latest conn
			// exits. A sender closes a conn before it dials the next, so
			// accept order is send order: each reader waits for its
			// predecessor to drain, and the pair's sequence gate sees
			// frames in the order they were sent. Otherwise a lagging
			// reader of the replaced conn would find the gate already
			// advanced by the resends and drop its frames as duplicates.
			last := make([]chan struct{}, spec.P)
			for {
				conn, err := m.listeners[d].Accept()
				if err != nil {
					return // listener closed: teardown
				}
				src, err := wire.ReadHello(conn)
				if err != nil || src < 0 || src >= spec.P || src == d {
					conn.Close()
					continue
				}
				done := make(chan struct{})
				// The accept goroutine holds a readersWG slot, so this
				// Add never races a Wait at zero.
				m.readersWG.Add(1)
				go m.serveConn(src, d, conn, last[src], done)
				last[src] = done
			}
		}()
	}
	// Dial side: every ordered pair gets a dedicated link.
	for s := 0; s < spec.P; s++ {
		for d := 0; d < spec.P; d++ {
			if s == d {
				continue
			}
			conn, err := m.connect(s, d)
			if err != nil {
				m.close()
				return nil, &RankError{Rank: s, Peer: d, Op: "dial", Err: err}
			}
			m.links[s][d].conn = conn
		}
	}
	return m, nil
}

// connect dials dst's listener and identifies src with a hello frame;
// inter-node conns are wrapped with the wire sniffer. Used for both
// initial setup and reconnects.
func (m *tcpMesh) connect(src, dst int) (net.Conn, error) {
	conn, err := net.Dial("tcp", m.addrs[dst])
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn, src); err != nil {
		conn.Close()
		return nil, err
	}
	if !m.spec.SameNode(src, dst) {
		return &sniffConn{Conn: conn, sniffer: m.sniff}, nil
	}
	return conn, nil
}

// teardown closes the listeners and links, ending the mesh. Idempotent;
// reader goroutines observe the closed conns and drain.
func (m *tcpMesh) teardown() {
	m.downOnce.Do(func() {
		for _, l := range m.listeners {
			if l != nil {
				l.Close()
			}
		}
		for _, row := range m.links {
			for _, lnk := range row {
				if lnk != nil {
					lnk.close()
				}
			}
		}
	})
}

// fail marks the mesh unrecoverable: it records the ErrMeshDown-wrapped
// cause, tears the transport down, and aborts every in-flight operation
// with a mesh-level RankError. Operation-level failures never come here;
// only organic transport death (retry exhaustion on non-injected errors,
// listener loss) and sequence-gate desync do.
func (m *tcpMesh) fail(cause error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = fmt.Errorf("%w: %v", ErrMeshDown, cause)
	}
	err := m.err
	m.errMu.Unlock()
	m.teardown()
	m.reg.each(func(o *opRuntime) {
		o.failAsync(&RankError{Rank: -1, Peer: -1, Op: "mesh", Err: err})
	})
}

// brokenErr returns the ErrMeshDown-wrapped cause once the mesh has
// failed, nil while it is healthy.
func (m *tcpMesh) brokenErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// gateDesync detects the one wire-corruption mode the mesh cannot
// recover from: a corrupted sequence number that inflated a receiver's
// gate past anything the sender has issued. Every later frame of that
// pair — in any operation — would be dropped as a duplicate, so the
// mesh must be declared down. Gate-then-link read order makes the check
// race-free against concurrent sends (link counters only grow, so a
// healthy pair can never show gate > issued).
func (m *tcpMesh) gateDesync() error {
	for dst := range m.gates {
		for src := range m.gates[dst] {
			if src == dst {
				continue
			}
			ahead := m.gates[dst][src].horizon()
			if issued := m.links[src][dst].issued(); ahead > issued {
				return fmt.Errorf("seq gate %d->%d desynced by wire corruption: gate at %d, sender issued %d",
					src, dst, ahead, issued)
			}
		}
	}
	return nil
}

// desynced runs the two checks for damage no operation error reports —
// a sequence gate inflated past its sender, a reader starved mid-frame
// — and fails the mesh on the first hit.
func (m *tcpMesh) desynced() error {
	err := m.gateDesync()
	if err == nil {
		err = m.readerStalled()
	}
	if err != nil {
		m.fail(err)
	}
	return err
}

func (m *tcpMesh) sniffer() *WireSniffer { return m.sniff }

// close tears the mesh down and waits for every reader goroutine.
func (m *tcpMesh) close() {
	m.teardown()
	m.readersWG.Wait()
}

// send is the single writer for all of src's links. A whole message
// goes out as one frame. A pipelined message (job.sid non-zero) goes out
// as the segment sub-frames of its one chunk's stream, sealing each
// segment right before it goes on the wire, so segment i travels while
// segment i+1 is still under AES-GCM and the receiver is already
// authenticating segment i-1. The first sub-frame carries the chunk's
// metadata. Every sub-frame takes its own link sequence number and
// rides the same reconnect-and-resend recovery as whole-message frames.
func (m *tcpMesh) send(src int, job sendJob) {
	o := job.op
	if job.sid == 0 {
		m.writeFrame(o, src, job.dst, job.msg, nil)
		return
	}
	c := job.msg.Chunks[0]
	st := c.Stream
	k := st.K()
	m.lm.pipeStreams.Inc()
	for i := 0; i < k; i++ {
		if o.isAborted() {
			return
		}
		seg, err := st.Segment(i)
		if err != nil {
			o.failAsync(&RankError{Rank: src, Peer: job.dst, Op: "seal", Err: err})
			return
		}
		sf := wire.SegFrame{Stream: job.sid, Index: uint32(i), Count: uint32(k), Payload: seg}
		if i == 0 {
			sf.Meta = &wire.SegMeta{Tag: c.Tag, Blocks: c.Blocks, Header: st.Header()}
		}
		if !m.writeFrame(o, src, job.dst, block.Message{}, &sf) {
			return
		}
		m.lm.pipeSegmentsSent.Inc()
	}
}

// writeFrame is the one path of every frame src sends to dst: a whole
// message, or the segment sub-frame sf when it is non-nil. It takes the
// link's next sequence number, writes the frame under sendWithRetry,
// then counts and traces it. A failed send reports false, after failing
// the op (its fault plan exhausted the retries) or the mesh (organic
// transport death).
func (m *tcpMesh) writeFrame(o *opRuntime, src, dst int, msg block.Message, sf *wire.SegFrame) bool {
	lnk := m.links[src][dst]
	seq := lnk.nextSeq()
	n := msg.WireLen()
	if sf != nil {
		n = int64(len(sf.Payload))
	}
	var start float64
	if o.wt.active() {
		start = o.wt.now()
	}
	if err := m.sendWithRetry(o, src, dst, lnk, seq, msg, sf); err != nil {
		switch {
		case o.isAborted(): // gave up because the op unwound mid-retry
		case errors.As(err, new(*fault.Error)):
			o.failAsync(&RankError{Rank: src, Peer: dst, Op: "send", Err: err})
		default:
			m.fail(fmt.Errorf("rank %d send to %d: %w", src, dst, err))
		}
		return false
	}
	m.lm.countSent(src, dst, n)
	if o.wt.active() {
		o.wt.emit(src, TraceSend, start, n, dst)
	}
	return true
}

// sendWithRetry writes frame seq (msg, or sf when non-nil), recovering
// from transient failures (injected drops, partial writes, connection
// resets) by reconnecting — fresh dial plus hello re-handshake — under
// exponential backoff. Resending the whole frame on a fresh connection
// is safe: the receiver's sequence gate drops duplicates, a partial
// frame on the abandoned connection never parses, and AES-GCM binds
// every ciphertext to its block header and op-id, so replays, splices
// and cross-operation deliveries fail closed rather than deliver wrong
// bytes.
//
// Each attempt is one frame of the pair to the operation's fault
// injector: a stall sleeps, a drop closes the conn, and any other
// verdict writes through Verdict.Writer, byte-exact on the frame.
func (m *tcpMesh) sendWithRetry(o *opRuntime, src, dst int, lnk *tcpLink, seq uint64, msg block.Message, sf *wire.SegFrame) error {
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			m.lm.resends.Inc()
			backoff := time.NewTimer(sendBackoffBase << (attempt - 1))
			select {
			case <-backoff.C:
			case <-o.aborted:
				backoff.Stop()
				return lastErr
			}
			conn, err := m.connect(src, dst)
			if err != nil {
				lastErr = err
				continue
			}
			lnk.replace(conn)
			m.lm.reconnects.Inc()
		}
		conn := lnk.get()
		if conn == nil {
			return lastErr
		}
		v := o.inj.SendFrame(src, dst)
		o.inj.Sleep(v.Stall)
		if v.Drop {
			conn.Close()
			lastErr = v.Err(fault.Drop)
			continue
		}
		var err error
		if sf != nil {
			err = lnk.fw.WriteSeg(v.Writer(conn), src, o.id, seq, *sf)
		} else {
			err = lnk.fw.WriteMsg(v.Writer(conn), src, o.id, seq, msg)
		}
		if err != nil {
			lastErr = err
			conn.Close()
			continue
		}
		return nil
	}
	return fmt.Errorf("send gave up after %d attempts: %w", sendRetries+1, lastErr)
}

// readTracker watches a reader's byte progress so the mesh can tell a
// connection that is idle between frames (healthy: it may wait forever)
// from one starved in the middle of a frame (corrupt: a flipped length
// or count field made the decoder demand bytes the sender never wrote,
// and every later frame on the stream is swallowed as phantom payload).
//
// It sits between the frame decoder and the connection's read buffer,
// never below the buffer: progress means bytes the decoder consumed. A
// tracker under the buffer would see a corrupted frame's header arrive
// in the same read(2) as the frame before it — before that frame's
// frameDone — and then report the starved decoder as idle.
type readTracker struct {
	r        io.Reader
	src, dst int
	// mark is the monotonic time (trackClock) of the last byte consumed
	// mid-frame, 0 between frames. Only the reader goroutine writes it.
	mark atomic.Int64
}

// trackEpoch anchors trackClock's monotonic readings.
var trackEpoch = time.Now()

// trackClock is a monotonic nanosecond clock that never reads 0.
func trackClock() int64 { return int64(time.Since(trackEpoch)) + 1 }

func (t *readTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.mark.Store(trackClock())
	}
	return n, err
}

// frameDone marks a clean frame boundary: the reader is idle again.
func (t *readTracker) frameDone() { t.mark.Store(0) }

// stall sleeps through an injected read stall of d. A stall is not
// starvation: a reader stalled mid-frame (a sub-frame's payload still
// on the stream) reads idle while it sleeps and resumes its clock after.
func (t *readTracker) stall(in *fault.Injector, d time.Duration) {
	mid := d > 0 && t.mark.Swap(0) != 0
	in.Sleep(d)
	if mid {
		t.mark.Store(trackClock())
	}
}

// starved reports how long the reader has been stuck mid-frame without
// consuming a byte.
func (t *readTracker) starved() (time.Duration, bool) {
	last := t.mark.Load()
	if last == 0 {
		return 0, false
	}
	return time.Duration(trackClock() - last), true
}

// connReadBuf is the read buffer under each accepted connection's
// tracker: a small frame's header and payload arrive in one read(2).
const connReadBuf = 8 << 10

// readerStallAfter is how long a reader must sit mid-frame with zero
// byte progress before the mesh calls it corrupted rather than slow. On
// loopback a frame's bytes arrive microseconds apart; a full second of
// mid-frame silence only happens when a corrupted length field left the
// decoder waiting for bytes that were never sent.
const readerStallAfter = time.Second

// connDied reports whether a read error is ordinary connection
// lifecycle — the stream ended or was closed/reset under the reader —
// as opposed to a parse failure on a live stream. Lifecycle errors are
// expected: the sender abandons a connection after a partial write and
// reconnects, so its reader sees a clean frame prefix followed by EOF,
// never garbage. A parse error on bytes that did arrive means the
// stream itself was corrupted in flight.
func connDied(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// serveConn handles one accepted connection from src, whose hello the
// accept loop has read: once the reader of the pair's previous conn has
// exited (after is closed), it demuxes sequence-deduplicated frames to
// the in-flight operation each frame's op-id names, until the connection
// dies (teardown, or a transient fault — the sender reconnects and a
// fresh accepted conn takes over). Frames whose op-id is not registered
// — stragglers resent from a completed or aborted collective, or frames
// with a corrupted op-id — are dropped after passing the sequence gate:
// they can be lost, never misrouted. Every frame, whole message or
// sub-frame, is admitted at one point: gate, op lookup, drop counters,
// the owning operation's read stall (so one op's read stalls never bill
// another op's plan) and receive counters.
//
// A frame that fails to parse (or arrives bearing the wrong source
// rank) is wire-level corruption of an established stream: past it the
// reader cannot re-find a frame boundary, and a sender writing into the
// abandoned socket can lose one frame without ever seeing an error — a
// silently deaf pair no later operation could diagnose. That is exactly
// the unrecoverable case, so it fails the mesh rather than just this
// reader.
func (m *tcpMesh) serveConn(src, dst int, conn net.Conn, after <-chan struct{}, done chan<- struct{}) {
	defer m.readersWG.Done()
	defer conn.Close()
	defer close(done)
	if after != nil {
		<-after
	}
	// decoder → tracker → read buffer → conn: see readTracker.
	tc := &readTracker{r: bufio.NewReaderSize(conn, connReadBuf), src: src, dst: dst}
	dec := wire.NewFrameReader(tc)
	dec.Alloc = cipherBufs.get
	m.track(tc)
	defer m.untrack(tc)
	gate := m.gates[dst][src]
	for {
		fr, err := dec.Next()
		if err != nil {
			if !connDied(err) {
				m.fail(fmt.Errorf("frame stream %d->%d corrupted: %v", src, dst, err))
			}
			return
		}
		if fr.Src != src {
			m.fail(fmt.Errorf("frame on the %d->%d stream claims src %d", src, dst, fr.Src))
			return
		}
		n := int64(fr.Seg.PayloadLen)
		if fr.Kind == wire.FrameMsg {
			n = fr.Msg.WireLen()
			tc.frameDone()
		}
		// Admit the frame once, whatever its kind: o stays nil for a
		// duplicate of a frame resent over a newer conn and for a
		// straggler of a retired operation, and the frame is dropped.
		var o *opRuntime
		if !gate.admit(fr.Seq) {
			m.lm.dedupDrops.Inc()
		} else if o, _ = m.reg.get(fr.Op); o == nil {
			m.lm.stragglers.Inc()
		} else {
			tc.stall(o.inj, o.inj.ReadDelay(src, dst))
			m.lm.countRecv(src, dst, n)
		}
		if fr.Kind == wire.FrameSeg {
			// A sub-frame's payload is still on the stream.
			if err := m.recvSegment(tc, o, src, dst, fr.Seg); err != nil {
				if !connDied(err) {
					m.fail(fmt.Errorf("frame stream %d->%d corrupted: %v", src, dst, err))
				}
				return
			}
		} else {
			// The encrypted payloads came from cipherBufs: they belong to o
			// from here on, or, for a frame nobody will read, go straight
			// back.
			for _, c := range fr.Msg.Chunks {
				switch {
				case !c.Enc:
				case o != nil:
					o.bufs.keep(c.Payload)
				default:
					cipherBufs.put(c.Payload)
				}
			}
			if o != nil {
				o.deliver(src, dst, fr.Msg)
			}
		}
	}
}

// recvSegment places the payload of one segment sub-frame that
// serveConn admitted for o, or reads past it when o is nil. A stream's
// first sub-frame carries its metadata and starts the pair's stream;
// each sub-frame's payload is read straight into the stream's next
// in-blob slot — no staging copy — and opened on this reader goroutine,
// and the last one delivers the message. A protocol violation inside a
// parseable sub-frame (a stream started over an incomplete one, a
// segment out of order or mis-sized) or a failed open fails the owning
// operation and drops the stream, whose remaining sub-frames are then
// read past as stragglers; the connection and the mesh's other
// operations are left alone. Only a read failure (returned) is
// connection-fatal.
func (m *tcpMesh) recvSegment(tc *readTracker, o *opRuntime, src, dst int, sf wire.SegFrame) error {
	discard := func() error {
		// Through the tracker, so a long discard counts as progress;
		// io.Discard copies through a pooled buffer, so it retains nothing.
		_, err := io.CopyN(io.Discard, tc, int64(sf.PayloadLen))
		tc.frameDone()
		return err
	}
	if o == nil || o.streams == nil {
		return discard()
	}
	pair := &o.streams[src*m.spec.P+dst]
	fail := func(op string, err error) {
		*pair = nil
		o.failAsync(&RankError{Rank: dst, Peer: src, Op: op, Err: err})
	}
	sr := *pair
	var err error
	switch {
	case sf.Meta != nil && sr != nil:
		err = fmt.Errorf("stream %d started while stream %d is incomplete", sf.Stream, sr.id)
	case sf.Meta != nil:
		sr, err = newStreamRecv(o, sf)
		*pair = sr
	case sr == nil:
		// The pair's stream failed earlier: the rest of it is stragglers.
		m.lm.stragglers.Inc()
		return discard()
	}
	var slot []byte
	if err == nil {
		slot, err = sr.slot(sf)
	}
	if err != nil {
		fail("recv", err)
		return discard()
	}
	if _, err := io.ReadFull(tc, slot); err != nil {
		return err
	}
	tc.frameDone()
	m.lm.pipeSegmentsRecv.Inc()
	m.lm.pipeInlineOpens.Inc()
	c, done, err := sr.open()
	switch {
	case err != nil:
		fail("open", err)
	case done:
		*pair = nil
		m.lm.pipeStreamSegments.Observe(int64(sr.os.K()))
		o.deliver(src, dst, block.Message{Chunks: []block.Chunk{c}})
	}
	return nil
}
