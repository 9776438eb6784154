package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/cost"
	"encag/internal/fault"
)

// TestMain is a goroutine-leak fence over the whole package (including
// the external chaos suite, which shares this test binary): after every
// test has run, the process must drain back to its baseline goroutine
// count. Crypto pool workers idle-exit after a second, so the fence
// polls with a generous deadline before declaring a leak.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base+2 {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				fmt.Fprintf(os.Stderr,
					"goroutine leak: %d live, baseline %d\n%s\n",
					runtime.NumGoroutine(), base, buf)
				code = 1
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	os.Exit(code)
}

// A deadlocked simulation unwinds its blocked ranks: SimOnce returns
// the deadlock error and leaves no goroutine behind.
func TestSimDeadlockLeaksNoGoroutine(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	op := Op{Algo: func(p *Proc, mine block.Message) block.Message {
		if p.Rank() != 1 {
			p.Recv(1) // rank 1 never sends
		}
		return mine
	}, MsgSize: 8}
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		if _, err := SimOnce(spec, cost.Noleland(), op); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("SimOnce = %v, want a deadlock error", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the deadlocked simulations, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ringStep keeps every rank mid-communication so failures land while
// connections are busy.
func ringStep(p *Proc, msg block.Message, rounds int) block.Message {
	next := (p.Rank() + 1) % p.P()
	prev := (p.Rank() - 1 + p.P()) % p.P()
	for i := 0; i < rounds; i++ {
		msg = p.SendRecv(next, msg, prev)
	}
	return msg
}

// opEngines are the session engines that run real payload bytes: the
// one op runtime over its link with memory pairs only, and with socket
// pairs between nodes.
var opEngines = []EngineKind{EngineChan, EngineTCP}

// A rank panic must surface as that rank's structured error — not as the
// "use of closed network connection" cascade the teardown provokes on
// every other rank.
func TestRankFailureSurfacesRootCause(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	boom := func(p *Proc, mine block.Message) block.Message {
		mine = ringStep(p, mine, 1)
		if p.Rank() == 2 {
			panic("boom: injected test failure")
		}
		return ringStep(p, mine, 6)
	}
	for _, engine := range opEngines {
		_, err := RunOnce(spec, SessionConfig{Engine: engine}, Op{Algo: boom, MsgSize: 512})
		if err == nil {
			t.Fatalf("%v: run with a panicking rank reported success", engine)
		}
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("%v: error is %T, want *RankError: %v", engine, err, err)
		}
		if re.Rank != 2 {
			t.Fatalf("%v: root cause attributed to rank %d, want 2: %v", engine, re.Rank, err)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("%v: root cause lost: %v", engine, err)
		}
		if strings.Contains(err.Error(), "closed network connection") {
			t.Fatalf("%v: secondary teardown error masked the root cause: %v", engine, err)
		}
	}
}

// A message that never arrives must fail the starved rank with a bounded
// structured recv error, not hang.
func TestRecvDeadline(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping, RecvTimeout: 200 * time.Millisecond}
	silent := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Recv(1) // rank 1 never sends
		}
		return mine
	}
	for _, engine := range opEngines {
		start := time.Now()
		_, err := RunOnce(spec, SessionConfig{Engine: engine}, Op{Algo: silent, MsgSize: 64})
		elapsed := time.Since(start)
		var re *RankError
		if err == nil || !errors.As(err, &re) {
			t.Fatalf("%v: err = %v, want *RankError", engine, err)
		}
		if re.Rank != 0 || re.Peer != 1 || re.Op != "recv" {
			t.Fatalf("%v: recv deadline misattributed: %+v", engine, re)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%v: recv deadline took %v, want ~200ms", engine, elapsed)
		}
	}
}

// A node barrier that can never complete fails its op at once, with no
// clock behind it: every receive may wait an hour. On node 1 of four
// ranks on two nodes, rank 2 either returns without the barrier its
// peer waits in, or waits in one more barrier than its peer. The op
// fails with Op "barrier" naming a rank of node 1, in well under a
// second, leaves no goroutine behind, and the slot it ran on serves the
// next op. The simulator reports the same algorithms as its deadlock.
func TestBarrierMismatchFailsAtOnce(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping, RecvTimeout: time.Hour}
	mismatches := []struct {
		name string
		algo Algorithm
	}{
		{"returns early", func(p *Proc, mine block.Message) block.Message {
			if p.Rank() != 2 {
				p.NodeBarrier()
			}
			return mine
		}},
		{"one extra barrier", func(p *Proc, mine block.Message) block.Message {
			p.NodeBarrier()
			if p.Rank() == 2 {
				p.NodeBarrier()
			}
			return mine
		}},
	}
	for _, engine := range opEngines {
		before := runtime.NumGoroutine()
		s, err := OpenSession(spec, SessionConfig{Engine: engine, MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mismatches {
			for i := 0; i < 4; i++ {
				start := time.Now()
				_, err := s.Collective(context.Background(), Op{Algo: m.algo, MsgSize: 64})
				elapsed := time.Since(start)
				var re *RankError
				if !errors.As(err, &re) || re.Op != "barrier" || re.Peer != -1 || spec.NodeOf(re.Rank) != 1 {
					t.Fatalf("%v %s: err = %v, want a barrier RankError naming rank 2 or 3", engine, m.name, err)
				}
				if !strings.Contains(err.Error(), "node 1: ") {
					t.Fatalf("%v %s: barrier error %q does not name its node", engine, m.name, err)
				}
				if elapsed > time.Second {
					t.Fatalf("%v %s: the mismatch took %v to fail", engine, m.name, elapsed)
				}
			}
		}
		res, err := s.Collective(context.Background(), Op{Algo: leaderShmGather, MsgSize: 64})
		if err == nil {
			err = ValidateGather(spec, 64, res.Results, true)
		}
		if err != nil {
			t.Fatalf("%v: op after the mismatches: %v", engine, err)
		}
		s.Close()
		awaitGoroutines(t, engine, before)
	}
	for _, m := range mismatches {
		if _, err := SimOnce(spec, cost.Noleland(), Op{Algo: m.algo, MsgSize: 64}); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("sim %s: err = %v, want a deadlock error", m.name, err)
		}
	}
}

// awaitGoroutines fails the test unless the process drains back to at
// most before+2 goroutines within five seconds, which leaves the crypto
// pool's idle workers time to wind down.
func awaitGoroutines(t *testing.T, engine EngineKind, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%v: %d goroutines before run, %d after\n%s",
				engine, before, runtime.NumGoroutine(), allStacks())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// allStacks returns the stacks of every goroutine, however many there
// are.
func allStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Cancelling the context ends an op whose ranks are parked in both kinds
// of wait: one rank of a node in a receive nobody sends, the node's other
// ranks in its barrier, which that rank never reaches. The op fails with
// Op "cancel" and leaves no goroutine behind.
func TestCancelUnblocksRecvAndBarrierWaits(t *testing.T) {
	spec := Spec{P: 6, N: 2, Mapping: BlockMapping, RecvTimeout: time.Hour}
	parked := func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Recv(1) // rank 1 never sends
		}
		p.NodeBarrier()
		return mine
	}
	for _, engine := range opEngines {
		before := runtime.NumGoroutine()
		s, err := OpenSession(spec, SessionConfig{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(100*time.Millisecond, cancel)
		_, err = s.Collective(ctx, Op{Algo: parked, MsgSize: 64})
		s.Close()
		var re *RankError
		if !errors.As(err, &re) || re.Op != "cancel" || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want *RankError with Op cancel wrapping context.Canceled", engine, err)
		}
		awaitGoroutines(t, engine, before)
	}
}

// shortConn accepts at most cap bytes per Write, then reports a short
// write — the failure mode the sniffer must not overcount on.
type shortConn struct {
	net.Conn // nil; only Write is used
	cap      int
	written  []byte
}

func (c *shortConn) Write(p []byte) (int, error) {
	if len(p) <= c.cap {
		c.written = append(c.written, p...)
		return len(p), nil
	}
	c.written = append(c.written, p[:c.cap]...)
	return c.cap, io.ErrShortWrite
}

// The sniffer must record only bytes the connection actually accepted:
// an eavesdropper cannot see bytes that never hit the wire.
func TestSnifferCountsOnlyWrittenBytes(t *testing.T) {
	s := &WireSniffer{}
	c := &sniffConn{Conn: &shortConn{cap: 4}, sniffer: s}
	n, err := c.Write([]byte("abcdefgh"))
	if n != 4 || err == nil {
		t.Fatalf("short write = (%d, %v), want (4, error)", n, err)
	}
	if got := s.Total(); got != 4 {
		t.Fatalf("sniffer recorded %d bytes, want the 4 actually written", got)
	}
	if !s.Contains([]byte("abcd")) || s.Contains([]byte("abcde")) {
		t.Fatalf("sniffer capture mismatch: %q", s.buf.String())
	}
	// A full write is recorded whole.
	if _, err := c.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got != 6 {
		t.Fatalf("sniffer total = %d, want 6", got)
	}
}

// A run under a nil or empty plan behaves exactly like a clean run.
func TestFaultyRunWithEmptyPlanIsClean(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	for _, plan := range []*fault.Plan{nil, {}} {
		res, err := RunOnce(spec, SessionConfig{Engine: EngineTCP}, Op{Algo: ringPlain, MsgSize: 1024, Plan: plan})
		if err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		if err := ValidateGather(spec, 1024, res.Results, true); err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		if res.Sniffer == nil {
			t.Fatal("no sniffer on faulty run result")
		}
	}
}
