package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/metrics"
	"encag/internal/wire"
)

const rawPayload = 64

// newRawMesh opens a TCP link for tests that play a sender by hand: its
// own socket pairs from the given ranks to rank 0 are closed, as a
// reconnecting sender would, so a hand-dialed conn from such a rank is
// read next.
func newRawMesh(t *testing.T, spec Spec, handSenders ...int) *link {
	t.Helper()
	m, err := newLink(spec, newLiveMetrics(metrics.NewRegistry(), spec, EngineTCP), newOpRegistry(), SessionConfig{Engine: EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.close) // after the hand-dialed conns close: cleanups run last-in first-out
	for _, src := range handSenders {
		m.socks[src][0].close()
	}
	return m
}

// rawFrame encodes one frame of an operation no one runs: the reader
// drops it as a straggler after the sequence gate, at a clean frame
// boundary.
func rawFrame(t *testing.T, src int, seq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, src, 99, seq, block.NewPlain(src, make([]byte, rawPayload))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dialRaw connects to rank 0 as src and writes the frames in one write.
func dialRaw(t *testing.T, m *link, src int, frames ...[]byte) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // m.close waits for this conn's reader
	if err := wire.WriteHello(c, src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(bytes.Join(frames, nil)); err != nil {
		t.Fatal(err)
	}
	return c
}

// The stall diagnosis survives the read buffer: a frame whose payload
// length was inflated in flight starves its reader mid-frame even when
// its header arrived in the same read(2) as the complete frame before it
// — read ahead into the buffer before that frame was done — and only
// that reader is reported; one idle between frames never is.
func TestReaderStallDiagnosedBehindReadAhead(t *testing.T) {
	m := newRawMesh(t, Spec{P: 3, N: 3, Mapping: BlockMapping}, 1, 2)
	// The payload length field sits just before the payload.
	inflated := rawFrame(t, 1, 1)
	binary.BigEndian.PutUint32(inflated[len(inflated)-rawPayload-4:], rawPayload+4096)
	dialRaw(t, m, 1, rawFrame(t, 1, 0), inflated, rawFrame(t, 1, 2)) // frame 2 becomes phantom payload
	dialRaw(t, m, 2, rawFrame(t, 2, 0))

	deadline := time.Now().Add(readerStallAfter + 5*time.Second)
	for m.readerStalled() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("no stall reported %v after the inflated frame", readerStallAfter+5*time.Second)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := m.readerStalled(); !strings.Contains(err.Error(), "stream 1->0 starved mid-frame") {
		t.Fatalf("stall report %q does not name the 1->0 stream", err)
	}
	m.trackMu.Lock()
	defer m.trackMu.Unlock()
	starved := 0
	for tr := range m.tracked {
		if _, mid := tr.starved(); mid {
			starved++
		}
	}
	if starved != 1 {
		t.Fatalf("%d readers mid-frame, want only the starved one (%d tracked, all others idle between frames)",
			starved, len(m.tracked))
	}
}

// A pair's conns are read in the order they were accepted: the frames a
// replaced conn still holds reach the sequence gate before the first
// frame of the conn that replaced it, however late the old conn's
// bytes are read. Otherwise the resends advance the gate first and the
// old conn's frames are dropped as duplicates.
func TestReconnectedPairReadInSendOrder(t *testing.T) {
	m := newRawMesh(t, Spec{P: 2, N: 2, Mapping: BlockMapping}, 1)
	gate := &m.socks[1][0].gate
	old := dialRaw(t, m, 1)
	dialRaw(t, m, 1, rawFrame(t, 1, 1))
	// Give a reader that does not wait for its predecessor time to
	// admit the new conn's frame first.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end) && gate.Load() == 0; {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := old.Write(rawFrame(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
	old.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.lm.stragglers.Value()+m.lm.dedupDrops.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("frames not read: %d stragglers, %d duplicates", m.lm.stragglers.Value(), m.lm.dedupDrops.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := m.lm.dedupDrops.Value(); d != 0 {
		t.Fatalf("%d of the replaced conn's frames dropped as duplicates: the new conn was read first", d)
	}
}

// A conn a sender dialed during teardown and installed after the link
// closed must be closed at once; otherwise its reader waits on it forever
// and Session.Close hangs waiting for the readers.
func TestLinkReplaceAfterCloseClosesConn(t *testing.T) {
	var l tcpLink
	l.close()
	a, b := net.Pipe()
	defer b.Close()
	l.replace(a)
	if l.get() != nil {
		t.Fatal("closed link adopted a new conn")
	}
	a.SetWriteDeadline(time.Now().Add(time.Second)) // an open pipe blocks: nobody reads b
	if _, err := a.Write([]byte{1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on the discarded conn = %v, want it closed", err)
	}
}

// A TCP session dials sockets only between nodes — P·(P−ℓ) conns, every
// one sniffed — and refuses a hello from a rank on the listener's own
// node without starting a reader. A chan session holds no listener and
// no conn.
func TestTCPSocketsOnlyBetweenNodes(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		conns int
	}{
		{Spec{P: 4, N: 2, Mapping: BlockMapping}, 8},
		{Spec{P: 8, N: 4, Mapping: BlockMapping}, 48},
	} {
		s, err := OpenSession(c.spec, SessionConfig{Engine: EngineTCP})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		l := s.tr.link
		conns := 0
		for src, row := range l.socks {
			for dst, sl := range row {
				switch {
				case sl == nil && !c.spec.SameNode(src, dst):
					t.Fatalf("%v: inter-node pair %d->%d has no socket", c.spec, src, dst)
				case sl == nil:
				case c.spec.SameNode(src, dst):
					t.Fatalf("%v: same-node pair %d->%d has a socket", c.spec, src, dst)
				default:
					if _, ok := sl.get().(*sniffConn); !ok {
						t.Fatalf("%v: conn %d->%d is not sniffed", c.spec, src, dst)
					}
					conns++
				}
			}
		}
		if conns != c.conns {
			t.Fatalf("%v: %d conns, want %d", c.spec, conns, c.conns)
		}
		readers := func() int {
			l.trackMu.Lock()
			defer l.trackMu.Unlock()
			return len(l.tracked)
		}
		for deadline := time.Now().Add(5 * time.Second); readers() != c.conns; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%v: %d readers, want %d", c.spec, readers(), c.conns)
			}
		}
		// Rank 1 shares rank 0's node: its hello is refused, and a reader
		// would have held the conn open.
		conn, err := net.Dial("tcp", l.addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteHello(conn, 1); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !connDied(err) {
			t.Fatalf("%v: same-node hello answered with %v, want the conn closed", c.spec, err)
		}
		if n := readers(); n != c.conns {
			t.Fatalf("%v: %d readers after a same-node hello, want %d", c.spec, n, c.conns)
		}
	}
	s, err := OpenSession(Spec{P: 4, N: 2, Mapping: BlockMapping}, SessionConfig{Engine: EngineChan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if l := s.tr.link; len(l.listeners) != 0 || l.sniff != nil {
		t.Fatalf("chan session holds %d listeners, sniffer %v", len(l.listeners), l.sniff)
	}
	for _, row := range s.tr.socks {
		for _, sl := range row {
			if sl != nil {
				t.Fatal("chan session holds a socket pair")
			}
		}
	}
}

// A stall planned for one operation ends with it. A one-hour stall on
// the send side (the sender's loop) and on the read side (a memory
// pair's delivery, a socket pair's reader) is under way when the
// operation's context is cancelled: the operation fails with the cancel
// error at once, and the session closes at once.
func TestFaultStallEndsWithItsOperation(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	for _, eng := range []EngineKind{EngineChan, EngineTCP} {
		for _, kind := range []fault.Kind{fault.Stall, fault.StallRead} {
			s, err := OpenSession(spec, SessionConfig{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			plan := &fault.Plan{Rules: []fault.Rule{{Src: 0, Dst: 1, Kind: kind, Delay: time.Hour}}}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := s.Collective(ctx, Op{Algo: exchangeEncrypted, MsgSize: 1 << 10, Plan: plan})
				done <- err
			}()
			for s.lm.faults[kind].Value() == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v %v: cancelled op failed with %v", eng, kind, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%v %v: cancelled op still running after 2 s", eng, kind)
			}
			closed := make(chan struct{})
			go func() {
				s.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatalf("%v %v: Close still waiting on the stall after 2 s", eng, kind)
			}
		}
	}
}
