package fault

import (
	"bytes"
	"errors"
	"net"
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
	// A provider yielding no injector arms no fault on the frame.
	if err := WrapSendProvider(func() *Injector { return nil }, 0, 1, nil).StartFrame(); err != nil {
		t.Fatalf("nil provider StartFrame = %v", err)
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

// pipeConn adapts net.Pipe for deterministic wrapper tests.
func pipeConn(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestConnDropClosesAndErrors(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 1, Kind: Drop}}})
	in.sleep = func(time.Duration) {}
	a, b := pipeConn(t)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	c := WrapSendProvider(func() *Injector { return in }, 0, 1, a)
	if err := c.StartFrame(); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	if _, err := c.Write([]byte("frame0")); err != nil {
		t.Fatalf("frame 0 write: %v", err)
	}
	err := c.StartFrame()
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Drop {
		t.Fatalf("frame 1 StartFrame = %v, want injected drop", err)
	}
	if _, err := c.Write([]byte("frame1")); err == nil {
		t.Fatal("write on dropped conn succeeded")
	}
}

func TestConnCorruptFlipsTargetByte(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: Corrupt, Offset: 3}}})
	in.sleep = func(time.Duration) {}
	a, b := pipeConn(t)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	c := WrapSendProvider(func() *Injector { return in }, 0, 1, a)
	if err := c.StartFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	out := <-got
	want := []byte{1, 2, 3, 4 ^ 0x40, 5}
	if !bytes.Equal(out, want) {
		t.Fatalf("wire bytes = %v, want %v", out, want)
	}
}

// Corruption lands on the right byte even when the frame is written in
// several Write calls.
func TestConnCorruptAcrossWrites(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: Corrupt, Offset: 5}}})
	in.sleep = func(time.Duration) {}
	a, b := pipeConn(t)
	got := make(chan []byte, 1)
	go func() {
		var acc []byte
		buf := make([]byte, 8)
		for len(acc) < 8 {
			n, err := b.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil {
				break
			}
		}
		got <- acc
	}()
	c := WrapSendProvider(func() *Injector { return in }, 0, 1, a)
	if err := c.StartFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	out := <-got
	want := []byte{0, 1, 2, 3, 4, 5 ^ 0x40, 6, 7}
	if !bytes.Equal(out, want) {
		t.Fatalf("wire bytes = %v, want %v", out, want)
	}
}

func TestConnPartialWriteShortensFrame(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Src: 0, Dst: 1, Frame: 0, Kind: PartialWrite, Keep: 3}}})
	in.sleep = func(time.Duration) {}
	a, b := pipeConn(t)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	c := WrapSendProvider(func() *Injector { return in }, 0, 1, a)
	if err := c.StartFrame(); err != nil {
		t.Fatal(err)
	}
	n, err := c.Write([]byte("abcdef"))
	var fe *Error
	if n != 3 || !errors.As(err, &fe) || fe.Kind != PartialWrite {
		t.Fatalf("partial write = (%d, %v), want (3, injected partial-write)", n, err)
	}
	if out := <-got; !bytes.Equal(out, []byte("abc")) {
		t.Fatalf("wire bytes = %q, want %q", out, "abc")
	}
	// The next frame on the same conn is healthy again.
	if err := c.StartFrame(); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	if _, err := c.Write([]byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if out := <-got; !bytes.Equal(out, []byte("xyz")) {
		t.Fatalf("post-fault frame = %q, want %q", out, "xyz")
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
