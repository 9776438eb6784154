package fault

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

func TestRandomPlanDeterministic(t *testing.T) {
	a := Random(42, 8, 6)
	b := Random(42, 8, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	c := Random(43, 8, 6)
	if reflect.DeepEqual(a.Rules, c.Rules) {
		t.Fatal("different seeds produced identical plans")
	}
	for _, r := range a.Rules {
		if r.Src == r.Dst || r.Src < 0 || r.Src >= 8 || r.Dst < 0 || r.Dst >= 8 {
			t.Fatalf("bad pair in generated rule %v", r)
		}
	}
}

func TestTransientPlanExcludesCorruption(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, r := range Transient(seed, 4, 8).Rules {
			if r.Kind == Corrupt {
				t.Fatalf("seed %d: transient plan contains corruption: %v", seed, r)
			}
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in2 := NewInjector(nil); in2 != nil {
		t.Fatal("nil plan produced a live injector")
	}
	if in2 := NewInjector(&Plan{}); in2 != nil {
		t.Fatal("empty plan produced a live injector")
	}
	v := in.SendFrame(0, 1)
	if v.Drop || v.CorruptAt != -1 || v.PartialKeep != -1 || v.Stall != 0 {
		t.Fatalf("nil injector verdict = %+v", v)
	}
	if d := in.ReadDelay(0, 1); d != 0 {
		t.Fatalf("nil injector read delay = %v", d)
	}
	// A clean verdict hands the frame's writer back unchanged.
	var buf bytes.Buffer
	if w := v.Writer(&buf); w != io.Writer(&buf) {
		t.Fatalf("clean verdict wrapped the writer: %T", w)
	}
}

func TestRuleFiresOnTargetFrameOnly(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{
		{Src: 2, Dst: 5, Frame: 3, Kind: Drop},
	}})
	for f := 0; f < 6; f++ {
		v := in.SendFrame(2, 5)
		if (f == 3) != v.Drop {
			t.Fatalf("frame %d: drop=%v", f, v.Drop)
		}
	}
	// A different pair never matches.
	for f := 0; f < 6; f++ {
		if in.SendFrame(5, 2).Drop {
			t.Fatal("rule fired on the reverse pair")
		}
	}
}

func TestTimesCapsFirings(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{
		{Src: -1, Dst: -1, Frame: -1, Kind: Stall, Delay: time.Millisecond, Times: 2},
	}})
	fired := 0
	for f := 0; f < 5; f++ {
		if in.SendFrame(0, 1).Stall > 0 {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("rule fired %d times, want 2", fired)
	}
	// Unlimited rule fires every frame.
	in = NewInjector(&Plan{Rules: []Rule{
		{Src: -1, Dst: -1, Frame: -1, Kind: Stall, Delay: time.Millisecond, Times: -1},
	}})
	for f := 0; f < 5; f++ {
		if in.SendFrame(0, 1).Stall == 0 {
			t.Fatalf("unlimited rule silent at frame %d", f)
		}
	}
}

func TestVerdictDropNamesFrame(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 1, Kind: Drop}}})
	if v := in.SendFrame(0, 1); v.Drop {
		t.Fatalf("frame 0 dropped: %+v", v)
	}
	v := in.SendFrame(0, 1)
	if !v.Drop {
		t.Fatalf("frame 1 not dropped: %+v", v)
	}
	var fe *Error
	if err := v.Err(Drop); !errors.As(err, &fe) || *fe != (Error{Kind: Drop, Src: 0, Dst: 1, Frame: 1}) {
		t.Fatalf("drop error = %v, want injected drop on 0->1 at frame 1", err)
	}
}

func TestVerdictWriterCorruptFlipsTargetByte(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: Corrupt, Offset: 3}}})
	var out bytes.Buffer
	frame := []byte{1, 2, 3, 4, 5}
	if _, err := in.SendFrame(0, 1).Writer(&out).Write(frame); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4 ^ 0x40, 5}; !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("wire bytes = %v, want %v", out.Bytes(), want)
	}
	if !bytes.Equal(frame, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("caller's buffer changed: %v", frame)
	}
}

// Corruption lands on the right byte even when the frame is written in
// several Write calls.
func TestVerdictWriterCorruptAcrossWrites(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: Corrupt, Offset: 5}}})
	var out bytes.Buffer
	w := in.SendFrame(0, 1).Writer(&out)
	for _, p := range [][]byte{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if want := []byte{0, 1, 2, 3, 4, 5 ^ 0x40, 6, 7}; !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("wire bytes = %v, want %v", out.Bytes(), want)
	}
}

func TestVerdictWriterPartialWriteStopsAtKeep(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: PartialWrite, Keep: 3}}})
	var out bytes.Buffer
	n, err := in.SendFrame(0, 1).Writer(&out).Write([]byte("abcdef"))
	var fe *Error
	if n != 3 || !errors.As(err, &fe) || fe.Kind != PartialWrite || fe.Frame != 0 {
		t.Fatalf("partial write = (%d, %v), want (3, injected partial-write at frame 0)", n, err)
	}
	if out.String() != "abc" {
		t.Fatalf("wire bytes = %q, want %q", out.String(), "abc")
	}
	// The next frame is clean again.
	out.Reset()
	if w := in.SendFrame(0, 1).Writer(&out); w != io.Writer(&out) {
		t.Fatalf("next frame's writer wrapped: %T", w)
	}
}

func TestReadDelayApplies(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{
		{Src: 0, Dst: 1, Kind: StallRead, Delay: 7 * time.Millisecond, Times: 1},
	}})
	if d := in.ReadDelay(1, 0); d != 0 {
		t.Fatalf("reverse pair delayed by %v", d)
	}
	if d := in.ReadDelay(0, 1); d != 7*time.Millisecond {
		t.Fatalf("first frame delayed by %v, want 7ms", d)
	}
	// Times=1: the second frame is not delayed.
	if d := in.ReadDelay(0, 1); d != 0 {
		t.Fatalf("second frame delayed too: %v", d)
	}
}

func TestPlanString(t *testing.T) {
	var p *Plan
	if p.String() != "fault.Plan{}" {
		t.Fatalf("nil plan string = %q", p.String())
	}
	p = Random(7, 4, 3)
	if p.String() == "" || p.String() == "fault.Plan{}" {
		t.Fatalf("plan string = %q", p.String())
	}
}
