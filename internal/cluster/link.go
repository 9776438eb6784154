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
// sockets, not just at the per-send check in Proc.Isend. On a persistent
// session the capture is cumulative over every collective run on the
// mesh, and keeps at most sniffKeep bytes.
type WireSniffer struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	total  int64
	capped bool
}

// sniffKeep caps a WireSniffer's capture in bytes.
const sniffKeep = 8 << 20

func (s *WireSniffer) record(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += int64(len(p))
	if s.buf.Len() < sniffKeep {
		room := sniffKeep - s.buf.Len()
		if len(p) > room {
			p = p[:room]
			s.capped = true
		}
		s.buf.Write(p)
	} else {
		s.capped = true
	}
}

// Total returns how many inter-node bytes crossed the wire in total.
func (s *WireSniffer) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Truncated reports whether the capture hit sniffKeep and dropped bytes.
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
	// sendRetries bounds the resends of one frame after a dropped or
	// failed attempt, on either pair kind.
	sendRetries = 4
	// sendBackoffBase is the first resend backoff; it doubles per
	// attempt (2, 4, 8, 16 ms).
	sendBackoffBase = 2 * time.Millisecond
)

// tcpLink is one socket pair: the sender-side state of one directed
// inter-node connection, and the receiving end's sequence gate. The
// owning rank's send scheduler goroutine is the only writer, but
// teardown closes the current conn concurrently, so conn access goes
// through the mutex. Socket pairs — and their monotone sequence
// counters — live as long as the session, so frame numbering continues
// across its collectives and the gates stay valid run-to-run, even with
// frames of concurrent operations interleaved on the pair.
type tcpLink struct {
	mu     sync.Mutex
	conn   net.Conn
	closed bool   // set by close: a conn dialed after it is closed at once
	seq    uint64 // next frame sequence number
	// fw is the pair's reusable frame encoder. Only the owning rank's
	// send scheduler writes frames, so it needs no lock; steady-state
	// sends reuse its buffer instead of allocating one per frame.
	fw *wire.FrameWriter
	// gate is the receiving end's sequence gate: the sequence number of
	// the next frame not yet delivered. It deduplicates frames across
	// reconnects — a frame resent after a transient failure may arrive
	// twice (once through the old connection, once through the new), and
	// must be delivered once — and persists for the session, so dedup
	// works across its (possibly concurrent) collectives too: the gate
	// orders the pair's byte stream, the op-id routes each admitted frame
	// to its operation. A frame is checked when its header arrives and
	// the gate moves past it only once the frame has been read in full,
	// so a frame cut short on a dropped connection does not turn its
	// resend into a duplicate. Only the pair's one running reader moves
	// the gate — its readers are chained — so checking first and moving
	// afterwards is race-free.
	gate atomic.Uint64
}

func (l *tcpLink) get() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// replace installs a freshly dialed conn, closing the previous one. A
// sender can dial before teardown closes the listener and install the
// conn after teardown closed the link; that conn is closed at once, or
// its reader would wait on it forever and the session would never close.
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

// link moves each queued message of a live operation from its sending
// rank to the destination's opRuntime. It has two kinds of pair:
//
//   - A memory pair — every pair on EngineChan, a same-node pair on
//     EngineTCP — is delivered by the sender's goroutine straight into
//     the destination op's receive FIFO: no frame is encoded and no byte
//     is copied. The paper trusts the node.
//   - A socket pair — an inter-node pair on EngineTCP, and only those —
//     is a dedicated dialed connection (a tcpLink) with a sequence gate,
//     a reader on the receiving rank and reconnects. Every socket pair is
//     wrapped by the wire sniffer.
//
// Both kinds take one fault verdict per send attempt and resend a
// dropped or partially written frame (sendWithRetry). On EngineTCP the
// link has one listener and accept loop per rank and the session-lifetime
// wire sniffer; on EngineChan it has neither and starts no goroutine. It
// outlives every collective until the session closes or a socket pair
// becomes unrecoverable (ErrMeshDown).
type link struct {
	spec Spec
	lm   *liveMetrics
	// reg maps live op-ids to their runtimes: socket readers demux each
	// admitted frame to the runtime registered under the frame's op-id and
	// drop frames of retired operations (stragglers).
	reg *opRegistry

	socks     [][]*tcpLink // [src][dst]; nil for a memory pair
	addrs     []string     // listener address per rank, for reconnects
	listeners []net.Listener
	sniff     *WireSniffer // nil on EngineChan
	readersWG sync.WaitGroup
	downOnce  sync.Once
	down      chan struct{} // closed by teardown: injected stalls end

	// segBufs[src] is the buffer src's send loop, its only user, seals
	// each streamed segment into and writes it from, kept for the
	// session.
	segBufs [][]byte

	// tracked holds the live readers' progress trackers, so the link can
	// diagnose a reader starved mid-frame by length-field corruption.
	trackMu sync.Mutex
	tracked map[*readTracker]struct{}

	errMu sync.Mutex
	err   error // ErrMeshDown-wrapped cause once a socket pair is broken
}

// newLink builds a session's link. On EngineTCP it listens, starts the
// accept loops and dials every inter-node pair — P·(P−ℓ) connections, the
// setup cost a session pays exactly once. On EngineChan every pair is a
// memory pair and there is nothing to set up.
func newLink(spec Spec, lm *liveMetrics, reg *opRegistry, cfg SessionConfig) (*link, error) {
	l := &link{
		spec:    spec,
		lm:      lm,
		reg:     reg,
		socks:   make([][]*tcpLink, spec.P),
		down:    make(chan struct{}),
		segBufs: make([][]byte, spec.P),
		tracked: make(map[*readTracker]struct{}),
	}
	tcp := cfg.Engine == EngineTCP
	for s := range l.socks {
		l.socks[s] = make([]*tcpLink, spec.P)
		for d := range l.socks[s] {
			if tcp && !spec.SameNode(s, d) {
				l.socks[s][d] = &tcpLink{fw: wire.NewFrameWriter()}
			}
		}
	}
	if !tcp {
		return l, nil
	}
	l.sniff = &WireSniffer{}
	l.addrs = make([]string, spec.P)
	l.listeners = make([]net.Listener, spec.P)
	// One listener per rank, each with a persistent accept loop: beyond
	// the initial connections it keeps accepting so that a sender
	// recovering from a transient fault can reconnect and re-handshake.
	for r := 0; r < spec.P; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.close()
			return nil, &RankError{Rank: r, Peer: -1, Op: "listen", Err: err}
		}
		l.listeners[r] = ln
		l.addrs[r] = ln.Addr().String()
	}
	for d := 0; d < spec.P; d++ {
		l.readersWG.Add(1)
		go l.accept(d)
	}
	for s, row := range l.socks {
		for d, sl := range row {
			if sl == nil {
				continue
			}
			conn, err := l.connect(s, d)
			if err != nil {
				l.close()
				return nil, &RankError{Rank: s, Peer: d, Op: "dial", Err: err}
			}
			sl.conn = conn
		}
	}
	return l, nil
}

// accept is rank d's accept loop. It refuses a hello from a rank on d's
// own node: only inter-node pairs are socket pairs.
func (l *link) accept(d int) {
	defer l.readersWG.Done()
	// last[src] is closed when the reader of src's latest conn exits. A
	// sender closes a conn before it dials the next, so accept order is
	// send order: each reader waits for its predecessor to drain, and the
	// pair's sequence gate sees frames in the order they were sent.
	// Otherwise a lagging reader of the replaced conn would find the gate
	// already advanced by the resends and drop its frames as duplicates.
	last := make([]chan struct{}, l.spec.P)
	for {
		conn, err := l.listeners[d].Accept()
		if err != nil {
			return // listener closed: teardown
		}
		src, err := wire.ReadHello(conn)
		if err != nil || src < 0 || src >= l.spec.P || l.spec.SameNode(src, d) {
			conn.Close()
			continue
		}
		done := make(chan struct{})
		// The accept goroutine holds a readersWG slot, so this Add never
		// races a Wait at zero.
		l.readersWG.Add(1)
		go l.serveConn(src, d, conn, last[src], done)
		last[src] = done
	}
}

// connect dials dst's listener, identifies src with a hello frame and
// wraps the conn with the wire sniffer: every socket pair is inter-node.
// Used for both initial setup and reconnects.
func (l *link) connect(src, dst int) (net.Conn, error) {
	conn, err := net.Dial("tcp", l.addrs[dst])
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn, src); err != nil {
		conn.Close()
		return nil, err
	}
	return &sniffConn{Conn: conn, sniffer: l.sniff}, nil
}

// teardown closes the listeners and socket pairs. Idempotent; reader
// goroutines observe the closed conns and drain.
func (l *link) teardown() {
	l.downOnce.Do(func() {
		close(l.down)
		for _, ln := range l.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, row := range l.socks {
			for _, sl := range row {
				if sl != nil {
					sl.close()
				}
			}
		}
	})
}

// fail marks the link unrecoverable: it records the ErrMeshDown-wrapped
// cause, tears the sockets down, and aborts every in-flight operation
// with a mesh-level RankError. Operation-level failures never come here;
// only organic socket death (retry exhaustion on non-injected errors,
// listener loss) and wire corruption do.
func (l *link) fail(cause error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = fmt.Errorf("%w: %v", ErrMeshDown, cause)
	}
	err := l.err
	l.errMu.Unlock()
	l.teardown()
	l.reg.each(func(o *opRuntime) {
		o.failAsync(&RankError{Rank: -1, Peer: -1, Op: "mesh", Err: err})
	})
}

// brokenErr returns the ErrMeshDown-wrapped cause once the link has
// failed, nil while it is healthy.
func (l *link) brokenErr() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

// gateDesync detects the one wire-corruption mode a socket pair cannot
// recover from: a corrupted sequence number that inflated a receiver's
// gate past anything the sender has issued. Every later frame of that
// pair — in any operation — would be dropped as a duplicate, so the
// link must be declared down. Gate-then-sender read order makes the
// check race-free against concurrent sends (sequence counters only
// grow, so a healthy pair can never show gate > issued).
func (l *link) gateDesync() error {
	for src, row := range l.socks {
		for dst, sl := range row {
			if sl == nil {
				continue
			}
			ahead := sl.gate.Load()
			if issued := sl.issued(); ahead > issued {
				return fmt.Errorf("seq gate %d->%d desynced by wire corruption: gate at %d, sender issued %d",
					src, dst, ahead, issued)
			}
		}
	}
	return nil
}

// readerStalled reports a live reader stuck mid-frame with no byte
// progress for readerStallAfter or longer — the signature of a
// corrupted length or count field, which leaves the decoder silently
// swallowing every later frame on the stream.
func (l *link) readerStalled() error {
	l.trackMu.Lock()
	defer l.trackMu.Unlock()
	for t := range l.tracked {
		if d, mid := t.starved(); mid && d >= readerStallAfter {
			return fmt.Errorf("frame stream %d->%d starved mid-frame for %v (corrupted length field?)",
				t.src, t.dst, d.Round(time.Millisecond))
		}
	}
	return nil
}

// desynced runs the two checks for socket damage no operation error
// reports — a sequence gate inflated past its sender, a reader starved
// mid-frame — and fails the link on the first hit. Called when an
// operation fails, and after a planned one succeeds. Memory pairs have
// nothing to check.
func (l *link) desynced() error {
	err := l.gateDesync()
	if err == nil {
		err = l.readerStalled()
	}
	if err != nil {
		l.fail(err)
	}
	return err
}

// close tears the sockets down and waits for every reader goroutine.
func (l *link) close() {
	l.teardown()
	l.readersWG.Wait()
}

// send is the single writer for all of src's pairs. A whole message goes
// out as one frame. A pipelined message (job.st non-nil, socket pairs
// only) goes out as the segment sub-frames of its one chunk, each sealed
// into src's segment buffer right before it goes on the wire, so segment
// i travels while segment i+1 is still under AES-GCM and the receiver is
// already authenticating segment i-1. The first sub-frame carries the
// chunk's metadata and whether the receiver relays it. Every sub-frame
// takes its own sequence number and rides the same resend recovery as
// whole-message frames, which resends the buffer as sealed: each segment
// is sealed once.
func (l *link) send(src int, job sendJob) {
	o, st := job.op, job.st
	if st == nil {
		l.writeFrame(o, src, job.dst, job.msg, nil)
		return
	}
	c, sid, k := job.msg.Chunks[0], o.streamSeq.Add(1), st.K()
	l.lm.pipeStreams.Inc()
	if job.relay {
		l.lm.pipeRelayStreams.Inc()
	}
	for i := 0; i < k; i++ {
		if o.isAborted() {
			return
		}
		seg, _ := st.AppendSegment(l.segBufs[src][:0], i) // i < K: sealing cannot fail
		l.segBufs[src] = seg
		sf := wire.SegFrame{Stream: sid, Index: uint32(i), Count: uint32(k), Payload: seg}
		if i == 0 {
			sf.Meta = &wire.SegMeta{Tag: c.Tag, Blocks: c.Blocks, Header: st.Header(), Relay: job.relay}
		}
		if !l.writeFrame(o, src, job.dst, block.Message{}, &sf) {
			return
		}
		l.lm.pipeSegmentsSent.Inc()
	}
}

// writeFrame is the one path of every frame src sends to dst: a whole
// message, or the segment sub-frame sf when it is non-nil. On a socket
// pair it takes the pair's next sequence number. It sends under
// sendWithRetry, then counts and traces the frame. A failed send reports
// false, after failing the op (its fault plan exhausted the retries) or
// the link (organic socket death).
func (l *link) writeFrame(o *opRuntime, src, dst int, msg block.Message, sf *wire.SegFrame) bool {
	sl := l.socks[src][dst]
	var seq uint64
	if sl != nil {
		seq = sl.nextSeq()
	}
	n := msg.WireLen()
	if sf != nil {
		n = int64(len(sf.Payload))
	}
	var start float64
	if o.wt.active() {
		start = o.wt.now()
	}
	if err := l.sendWithRetry(o, src, dst, sl, seq, msg, sf); err != nil {
		switch {
		case o.isAborted(): // gave up because the op unwound mid-retry
		case errors.As(err, new(*fault.Error)):
			o.failAsync(&RankError{Rank: src, Peer: dst, Op: "send", Err: err})
		default:
			l.fail(fmt.Errorf("rank %d send to %d: %w", src, dst, err))
		}
		return false
	}
	if sl != nil {
		l.lm.countSent(src, dst, n) // a memory pair counted at delivery
	}
	if o.wt.active() {
		o.wt.emit(src, TraceSend, start, n, dst)
	}
	return true
}

// errUnwound ends a send whose injected stall was cut short: its
// operation unwound or the link closed.
var errUnwound = errors.New("cluster: send unwound during an injected stall")

// stall waits out an injected delay d of operation o, cut short when o
// aborts or the link is torn down, which it reports as false. A zero
// delay returns at once and starts no timer.
func (l *link) stall(o *opRuntime, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-o.aborted:
	case <-l.down:
	}
	return false
}

// sendWithRetry sends frame seq (msg, or sf when non-nil) on the pair
// sl, or in memory when sl is nil. Each attempt takes one frame verdict
// from the operation's fault injector; a stall waits (l.stall), and a
// stall cut short ends the send. A dropped or partially written attempt
// — or, on a socket pair, a connection reset — is resent under
// exponential backoff, up to sendRetries times. A socket
// pair redials first (fresh dial plus hello re-handshake), and resending
// the whole frame on the fresh connection is safe: the receiver's
// sequence gate drops duplicates, a partial frame on the abandoned
// connection never parses, and AES-GCM binds every ciphertext to its
// block header and op-id, so replays, splices and cross-operation
// deliveries fail closed rather than deliver wrong bytes. A memory pair
// has nothing to redial.
func (l *link) sendWithRetry(o *opRuntime, src, dst int, sl *tcpLink, seq uint64, msg block.Message, sf *wire.SegFrame) error {
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			l.lm.resends.Inc()
			backoff := time.NewTimer(sendBackoffBase << (attempt - 1))
			select {
			case <-backoff.C:
			case <-o.aborted:
				backoff.Stop()
				return lastErr
			}
			if sl != nil {
				conn, err := l.connect(src, dst)
				if err != nil {
					lastErr = err
					continue
				}
				sl.replace(conn)
				l.lm.reconnects.Inc()
			}
		}
		v := o.inj.SendFrame(src, dst)
		if !l.stall(o, v.Stall) {
			return errUnwound
		}
		if sl == nil {
			lastErr = l.deliverMemory(o, src, dst, msg, v)
		} else {
			lastErr = sl.write(o, src, seq, msg, sf, v)
		}
		if lastErr == nil || lastErr == errUnwound {
			return lastErr
		}
	}
	return fmt.Errorf("send gave up after %d attempts: %w", sendRetries+1, lastErr)
}

// write is one attempt on the socket pair: a drop closes the conn, and
// any other verdict writes through Verdict.Writer, byte-exact on the
// frame. A failed write closes the conn too.
func (sl *tcpLink) write(o *opRuntime, src int, seq uint64, msg block.Message, sf *wire.SegFrame, v fault.Verdict) error {
	conn := sl.get()
	if v.Drop {
		conn.Close()
		return v.Err(fault.Drop)
	}
	var err error
	if sf != nil {
		err = sl.fw.WriteSeg(v.Writer(conn), src, o.id, seq, *sf)
	} else {
		err = sl.fw.WriteMsg(v.Writer(conn), src, o.id, seq, msg)
	}
	if err != nil {
		conn.Close()
	}
	return err
}

// deliverMemory is one attempt on a memory pair. A dropped or partially
// written frame is lost in transit, to be resent; a corrupted one has a
// payload byte flipped. The pair's read stall holds the delivery — and,
// since delivery runs on src's send queue, src's later messages to every
// destination — until it elapses or the op unwinds. Send and delivery
// coincide, so one point charges both directions of the transport
// counters.
func (l *link) deliverMemory(o *opRuntime, src, dst int, msg block.Message, v fault.Verdict) error {
	switch {
	case v.Drop:
		return v.Err(fault.Drop)
	case v.PartialKeep >= 0:
		return v.Err(fault.PartialWrite)
	case v.CorruptAt >= 0:
		msg = corruptMessage(msg, v.CorruptAt)
	}
	if !l.stall(o, o.inj.ReadDelay(src, dst)) {
		return errUnwound
	}
	n := msg.WireLen()
	l.lm.countSent(src, dst, n)
	l.lm.countRecv(src, dst, n)
	o.deliver(src, dst, msg)
	return nil
}

// corruptMessage returns msg with one payload byte flipped at the given
// offset into the concatenation of its chunk payloads (modulo total
// payload length). The affected chunk is cloned so the sender's own
// buffers stay intact.
func corruptMessage(msg block.Message, offset int) block.Message {
	var total int
	for _, c := range msg.Chunks {
		total += len(c.Payload)
	}
	if total == 0 {
		return msg
	}
	offset %= total
	out := block.Message{Chunks: append([]block.Chunk(nil), msg.Chunks...)}
	for i := range out.Chunks {
		n := len(out.Chunks[i].Payload)
		if offset >= n {
			offset -= n
			continue
		}
		tampered := append([]byte(nil), out.Chunks[i].Payload...)
		tampered[offset] ^= 0x40
		out.Chunks[i].Payload = tampered
		break
	}
	return out
}

// readTracker watches a reader's byte progress so the link can tell a
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

// stall waits through an injected read stall of d for op o (l.stall).
// A stall is not starvation: a reader stalled mid-frame (a sub-frame's
// payload still on the stream) reads idle while it waits and resumes its
// clock after.
func (t *readTracker) stall(l *link, o *opRuntime, d time.Duration) {
	mid := d > 0 && t.mark.Swap(0) != 0
	l.stall(o, d)
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
// byte progress before the link calls it corrupted rather than slow. On
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
// sub-frame, is admitted at one point: gate check, op lookup, drop
// counters and the owning operation's read stall (so one op's read
// stalls never bill another op's plan). It moves the gate and counts as
// received only once read in full.
//
// A frame that fails to parse (or arrives bearing the wrong source
// rank) is wire-level corruption of an established stream: past it the
// reader cannot re-find a frame boundary, and a sender writing into the
// abandoned socket can lose one frame without ever seeing an error — a
// silently deaf pair no later operation could diagnose. That is exactly
// the unrecoverable case, so it fails the link rather than just this
// reader.
func (l *link) serveConn(src, dst int, conn net.Conn, after <-chan struct{}, done chan<- struct{}) {
	defer l.readersWG.Done()
	defer conn.Close()
	defer close(done)
	if after != nil {
		<-after
	}
	// decoder → tracker → read buffer → conn: see readTracker.
	tc := &readTracker{r: bufio.NewReaderSize(conn, connReadBuf), src: src, dst: dst}
	dec := wire.NewFrameReader(tc)
	dec.Alloc = cipherBufs.get
	l.trackMu.Lock()
	l.tracked[tc] = struct{}{}
	l.trackMu.Unlock()
	defer func() {
		l.trackMu.Lock()
		delete(l.tracked, tc)
		l.trackMu.Unlock()
	}()
	gate := &l.socks[src][dst].gate
	for {
		fr, err := dec.Next()
		if err != nil {
			if !connDied(err) {
				l.fail(fmt.Errorf("frame stream %d->%d corrupted: %v", src, dst, err))
			}
			return
		}
		if fr.Src != src {
			l.fail(fmt.Errorf("frame on the %d->%d stream claims src %d", src, dst, fr.Src))
			return
		}
		// Admit the frame once, whatever its kind: o stays nil for a
		// duplicate of a frame resent over a newer conn and for a
		// straggler of a retired operation, and the frame is dropped.
		var o *opRuntime
		fresh := fr.Seq >= gate.Load()
		if !fresh {
			l.lm.dedupDrops.Inc()
		} else if o, _ = l.reg.get(fr.Op); o == nil {
			l.lm.stragglers.Inc()
		} else {
			tc.stall(l, o, o.inj.ReadDelay(src, dst))
		}
		if fr.Kind == wire.FrameSeg {
			// A sub-frame's payload is still on the stream.
			sr, err := l.readSegment(tc, o, src, dst, fr.Seg)
			if err != nil {
				if !connDied(err) {
					l.fail(fmt.Errorf("frame stream %d->%d corrupted: %v", src, dst, err))
				}
				return
			}
			if fresh {
				gate.Store(fr.Seq + 1)
			}
			if sr != nil {
				l.lm.countRecv(src, dst, int64(fr.Seg.PayloadLen))
				l.openSegment(o, src, dst, sr)
			}
			continue
		}
		tc.frameDone()
		if fresh {
			gate.Store(fr.Seq + 1)
		}
		// The encrypted payloads came from cipherBufs: they belong to o
		// from here on, or, for a frame nobody will read, go straight back.
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
			l.lm.countRecv(src, dst, fr.Msg.WireLen())
			o.deliver(src, dst, fr.Msg)
		}
	}
}

// readSegment reads the payload of one segment sub-frame that serveConn
// admitted for o into its slot in the pair's incoming stream, and
// returns that stream; it reads past the payload, returning nil, when o
// is nil or the sub-frame is refused. A stream's first sub-frame carries
// its metadata and starts the pair's stream, which is installed only
// once that sub-frame's payload is in: a first sub-frame cut short on a
// dropped connection is simply resent. Each payload is read straight
// into the stream's next slot, its nonce and then its ciphertext||tag,
// where the segment opens — no staging copy. A protocol
// violation inside a parseable sub-frame (a stream started over an
// incomplete one, a segment out of order or mis-sized) fails the owning
// operation and drops the stream, whose remaining sub-frames are then
// read past as stragglers; the connection and the link's other
// operations are left alone. Only a read failure (returned) is
// connection-fatal.
func (l *link) readSegment(tc *readTracker, o *opRuntime, src, dst int, sf wire.SegFrame) (*streamRecv, error) {
	discard := func() (*streamRecv, error) {
		// Through the tracker, so a long discard counts as progress;
		// io.Discard copies through a pooled buffer, so it retains nothing.
		_, err := io.CopyN(io.Discard, tc, int64(sf.PayloadLen))
		tc.frameDone()
		return nil, err
	}
	if o == nil || o.streams == nil {
		return discard()
	}
	pair := &o.streams[src*l.spec.P+dst]
	sr := *pair
	var err error
	switch {
	case sf.Meta != nil && sr != nil:
		err = fmt.Errorf("stream %d started while stream %d is incomplete", sf.Stream, sr.id)
	case sf.Meta != nil:
		sr, err = newStreamRecv(o, sf)
	case sr == nil:
		// The pair's stream failed earlier: the rest of it is stragglers.
		l.lm.stragglers.Inc()
		return discard()
	}
	var nonce, body []byte
	if err == nil {
		nonce, body, err = sr.slot(sf)
	}
	if err != nil {
		*pair = nil
		o.failAsync(&RankError{Rank: dst, Peer: src, Op: "recv", Err: err})
		return discard()
	}
	if _, err := io.ReadFull(tc, nonce); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(tc, body); err != nil {
		return nil, err
	}
	tc.frameDone()
	*pair = sr
	return sr, nil
}

// openSegment authenticates and decrypts the segment readSegment just
// placed, on this reader goroutine, and delivers the message once its
// last segment is open. A failed open fails the owning operation and
// drops the stream.
func (l *link) openSegment(o *opRuntime, src, dst int, sr *streamRecv) {
	l.lm.pipeSegmentsRecv.Inc()
	pair := &o.streams[src*l.spec.P+dst]
	c, done, err := sr.open()
	switch {
	case err != nil:
		*pair = nil
		o.failAsync(&RankError{Rank: dst, Peer: src, Op: "open", Err: err})
	case done:
		*pair = nil
		l.lm.pipeStreamSegments.Observe(int64(sr.os.K()))
		o.deliver(src, dst, block.Message{Chunks: []block.Chunk{c}})
	}
}
