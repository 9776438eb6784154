// Package testkit holds what the tests of several packages share: the
// single-use session, run or simulated, and one check of the paper's
// contract for a finished operation. Only _test.go files import it.
// Package cluster and the packages it imports cannot (their in-package
// tests would import themselves); cluster's tests keep the same helpers
// unexported in its helpers_test.go.
package testkit

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/cost"
)

// Run opens a session on spec and cfg, runs op on it and closes it
// again, re-paying the whole setup on every call.
func Run(spec cluster.Spec, cfg cluster.SessionConfig, op cluster.Op) (*cluster.RealResult, error) {
	s, err := cluster.OpenSession(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Collective(context.Background(), op)
}

// Sim is Run on the discrete-event model: one EngineSim session under
// prof, one Sim of op, closed again.
func Sim(spec cluster.Spec, prof cost.Profile, op cluster.Op) (*cluster.SimResult, error) {
	s, err := cluster.OpenSession(spec, cluster.SessionConfig{Engine: cluster.EngineSim, Profile: prof})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Sim(context.Background(), op)
}

// Once runs op on a single-use session and fails t unless it
// completed, every seal drew its nonce from the session sealer's one
// counter (the sealer's invocations grew by the op's summed EncSegments,
// so no two seals shared a nonce), and the process drained back to its
// goroutines from before the open once the session closed. It returns
// the closed session, whose wire capture Contract reads, and the
// result. A t.Parallel test must not call it: its neighbours' goroutines
// make the count meaningless.
func Once(t testing.TB, spec cluster.Spec, cfg cluster.SessionConfig, op cluster.Op) (*cluster.Session, *cluster.RealResult) {
	t.Helper()
	before := Live()
	s, err := cluster.OpenSession(spec, cfg)
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	sealed := s.Sealer().Invocations()
	res, err := s.Collective(context.Background(), op)
	s.Close() // the wire capture is final once the send loops stop
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	var segs uint64
	for _, m := range res.PerRank {
		segs += uint64(m.EncSegments)
	}
	if got := s.Sealer().Invocations() - sealed; got != segs {
		t.Errorf("%v: sealer invoked %d times for %d sealed segments", spec, got, segs)
	}
	Drained(t, before)
	return s, res
}

// Contract fails t unless res, an op of sizes on s with the test
// pattern payloads, kept the paper's contract: every rank gathered every
// block byte-exact, no inter-node send carried a plaintext chunk and, on
// TCP across nodes, the wire capture saw traffic and holds no rank's
// test pattern (patterns under 16 bytes are too short to scan). It
// reports with t.Errorf, so a test's worker goroutines may call it.
func Contract(t testing.TB, s *cluster.Session, sizes []int64, res *cluster.RealResult) {
	t.Helper()
	spec := s.Spec()
	if err := cluster.ValidateGatherV(spec, sizes, res.Results, true); err != nil {
		t.Errorf("%v: %v", spec, err)
	}
	if msgs := cluster.MessageTotals(res.PerRank); msgs.PlainInterMsgs != 0 {
		t.Errorf("%v: %d inter-node sends in plaintext: %v", spec, msgs.PlainInterMsgs, msgs.Violations)
	}
	sn := s.Sniffer()
	if sn == nil || spec.N == 1 {
		return
	}
	if sn.Total() == 0 {
		t.Errorf("%v: the wire capture saw no inter-node traffic", spec)
	}
	for r, m := range sizes {
		// A 64-byte needle scans at memory speed, and the whole pattern can
		// only be where its first 64 bytes are.
		if m >= 16 && sn.Contains(block.PatternFill(r, min(m, 64))) && sn.Contains(block.PatternFill(r, m)) {
			t.Errorf("%v: rank %d's plaintext is on the wire", spec, r)
		}
	}
}

// Drained fails t unless the process drains back to at most before
// goroutines, counted by Live, within five seconds, and prints every
// stack if it does not.
func Drained(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for wait := time.Millisecond; Live() > before; wait = min(2*wait, 25*time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after\n%s", before, Live(), stacks())
		}
		time.Sleep(wait)
	}
}

// Live counts the process's goroutines but a crypto pool's workers,
// which outlive every session by design and idle-exit a second after
// their last task.
func Live() int {
	st := stacks()
	return 1 + bytes.Count(st, []byte("\ngoroutine ")) - bytes.Count(st, []byte("seal.(*Pool).work("))
}

// stacks returns the stacks of every goroutine, however many there are.
func stacks() []byte {
	for buf := make([]byte, 64<<10); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
	}
}

// AllBlocks fabricates rank p's complete sim-mode gather result around
// its own block, for micro-tests whose algorithm gathers nothing.
func AllBlocks(p *cluster.Proc, mine block.Message) block.Message {
	out := make([]block.Chunk, 0, p.P())
	for r := 0; r < p.P(); r++ {
		if r == p.Rank() {
			out = append(out, mine.Chunks...)
		} else {
			out = append(out, block.Chunk{Blocks: []block.Block{{Origin: r, Len: mine.PlainLen()}}})
		}
	}
	return block.Message{Chunks: out}
}
