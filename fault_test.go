package encag_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"encag"
)

var bg = context.Background()

// The public fault-injection surface: transient plans recover over TCP,
// random plans complete or fail closed with a structured RankError, and
// hand-built plans hit the exact frame they target.
func TestRunTCPFaultyTransientRecovers(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 10 * time.Second}
	plan := encag.TransientFaultPlan(7, spec.Procs, 5)
	s := encag.OpenTest(t, spec, encag.WithEngine(encag.EngineTCP), encag.WithFaultPlan(plan))
	res, err := s.Run(bg, "o-ring", 1024)
	if err != nil {
		t.Fatalf("transient plan must recover: %v\nplan: %v", err, plan)
	}
	encag.Contract(t, s, res, encag.Patterns(spec.Procs, 1024))
}

func TestRunTCPFaultyFailsClosed(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second}
	// Corrupt every frame 0->2 (inter-node under block mapping): the run
	// must either absorb it (frame re-sent for another reason) or report
	// one structured root cause — silent wrong buffers are the only
	// forbidden outcome, and a Run under a plan validates against them.
	plan := &encag.FaultPlan{Rules: []encag.FaultRule{
		{Src: 0, Dst: 2, Frame: -1, Kind: encag.FaultCorrupt, Offset: 90, Times: -1},
	}}
	_, err := encag.OpenTest(t, spec, encag.WithEngine(encag.EngineTCP), encag.WithFaultPlan(plan)).Run(bg, "naive", 1024)
	if err != nil {
		var re *encag.RankError
		if !errors.As(err, &re) {
			t.Fatalf("error is %T, want *RankError: %v", err, err)
		}
	}
}

func TestRunFaultyChannelEngine(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second}
	s := encag.OpenTest(t, spec)
	// Every chan pair is a memory pair, and a dropped message is resent
	// like a dropped frame on a socket: one drop recovers. Naive is
	// all-to-all, so the 1->0 pair is guaranteed to carry a message.
	once := &encag.FaultPlan{Rules: []encag.FaultRule{
		{Src: 1, Dst: 0, Frame: 0, Kind: encag.FaultDrop},
	}}
	res, err := s.Run(bg, "naive", 512, encag.WithFaultPlan(once))
	if err != nil {
		t.Fatalf("one dropped message did not recover: %v", err)
	}
	encag.Contract(t, s, res, encag.Patterns(spec.Procs, 512))
	// A pair that drops every attempt runs out of resends: the sender
	// fails the operation with the injected fault, long before the
	// starved peer's receive deadline.
	always := &encag.FaultPlan{Rules: []encag.FaultRule{
		{Src: 1, Dst: 0, Frame: -1, Kind: encag.FaultDrop, Times: -1},
	}}
	start := time.Now()
	_, err = s.Run(bg, "naive", 512, encag.WithFaultPlan(always))
	var re *encag.RankError
	if !errors.As(err, &re) || re.Op != "send" || !strings.Contains(err.Error(), "fault: injected drop") {
		t.Fatalf("err = %v, want a send *RankError naming the injected drop", err)
	}
	if d := time.Since(start); d > spec.RecvTimeout/2 {
		t.Fatalf("exhausted resends took %v to fail the op, want well inside the %v receive deadline", d, spec.RecvTimeout)
	}
	// The same plan with no faults completes normally.
	res, err = s.Run(bg, "o-ring", 512, encag.WithFaultPlan(&encag.FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	encag.Contract(t, s, res, encag.Patterns(spec.Procs, 512))
}

// A fault plan can inflate a TCP sequence gate in a frame whose operation
// still completes. The session must find that as soon as the planned
// operation ends — it stays successful, the session breaks — and refuse
// the next operation at once instead of letting it starve for the whole
// receive deadline. Chan has no socket pairs and no gates: nothing to
// find there.
func TestPlannedSuccessCannotHideGateDesync(t *testing.T) {
	spec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second}
	for _, c := range []struct {
		engine encag.Engine
		broken bool
	}{
		{encag.EngineChan, false},
		{encag.EngineTCP, true},
	} {
		s := encag.OpenTest(t, spec, encag.WithEngine(c.engine))
		plan := encag.RandomFaultPlan(2, spec.Procs, 6)
		_, err := s.Run(bg, "o-rd", 2048, encag.WithFaultPlan(plan))
		var re *encag.RankError
		if c.broken && err != nil || err != nil && !errors.As(err, &re) {
			// Over TCP byte 14 of the corrupted frame is its sequence
			// field and the operation completes; a memory pair carries
			// no frame header, so the same plan damages a payload there.
			t.Fatalf("%s: planned operation: %v\nplan: %v", c.engine, err, plan)
		}
		broken := s.Err()
		start := time.Now()
		_, err = s.Run(bg, "o-rd", 2048)
		if !c.broken {
			if broken != nil || err != nil {
				t.Errorf("%s: session Err %v, next run %v; want both nil", c.engine, broken, err)
			}
			continue
		}
		if broken == nil || !strings.Contains(broken.Error(), "seq gate 2->0 desynced") {
			t.Errorf("%s: session Err after the planned run = %v, want the desynced gate named", c.engine, broken)
		}
		if !errors.Is(err, encag.ErrSessionBroken) {
			t.Errorf("%s: next run: %v, want ErrSessionBroken", c.engine, err)
		}
		if d := time.Since(start); d > spec.RecvTimeout/4 {
			t.Errorf("%s: next run took %v to fail; a broken session refuses at once", c.engine, d)
		}
	}
}
