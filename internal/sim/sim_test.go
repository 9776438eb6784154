package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %g, want 3", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling twice is a no-op.
	e.Cancel(ev)
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEnv()
	e.Schedule(5, func() {
		e.Schedule(-3, func() {
			if e.Now() != 5 {
				t.Errorf("negative delay fired at %g, want 5", e.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessWait(t *testing.T) {
	e := NewEnv()
	var times []float64
	e.Go("p", func(p *Proc) {
		p.Wait(1.5)
		times = append(times, p.Now())
		p.Wait(2.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1.5 || times[1] != 4 {
		t.Fatalf("times = %v, want [1.5 4]", times)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(1)
				log = append(log, "a")
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(1)
				log = append(log, "b")
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSignalStickyAndGate(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var woke []float64
	e.Go("w1", func(p *Proc) {
		s.Wait(p)
		woke = append(woke, p.Now())
	})
	e.Go("firer", func(p *Proc) {
		p.Wait(2)
		s.Fire()
	})
	e.Go("late", func(p *Proc) {
		p.Wait(5)
		s.Wait(p) // already fired: returns immediately
		woke = append(woke, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != 2 || woke[1] != 5 {
		t.Fatalf("woke = %v, want [2 5]", woke)
	}

	// A gate does not stay fired.
	e2 := NewEnv()
	g := NewGate(e2)
	reached := false
	e2.Go("w", func(p *Proc) {
		p.Wait(1)
		g.Wait(p) // nothing will fire it again
		reached = true
	})
	e2.Go("f", func(p *Proc) { g.Fire() }) // fires at t=0, before w waits
	err := e2.Run()
	if err == nil {
		t.Fatal("expected deadlock error for gate waiter")
	}
	if reached {
		t.Fatal("gate waiter passed without Fire")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	s := NewGate(e)
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Go("boom", func(p *Proc) { panic("kaboom") })
	if err := e.Run(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

// A run that ends early unwinds every live process, the ones parked on
// a Signal or an event and the one not yet started alike: by the time
// Run returns, each has run its deferred code, and what Run reports is
// the run's own failure, never the unwinding.
func TestEarlyEndUnwindsLiveProcesses(t *testing.T) {
	cases := []struct {
		name string
		boom bool
		want string
	}{
		{"deadlock", false, "deadlock: 3 process(es)"},
		{"panic", true, `process "boom" panicked: kaboom`},
	}
	for _, c := range cases {
		e := NewEnv()
		g := NewGate(e)
		unwound, ran := 0, 0
		for _, d := range []float64{0, 1, 2} {
			d := d
			e.Go("stuck", func(p *Proc) {
				defer func() { unwound++ }()
				p.Wait(d)
				g.Wait(p)
			})
		}
		if c.boom {
			e.Go("boom", func(p *Proc) { p.Wait(3); panic("kaboom") })
			e.Go("late", func(p *Proc) { p.Wait(9); ran++ })
			e.Schedule(3, func() { e.Go("unstarted", func(p *Proc) { ran++ }) })
		}
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Run = %v, want an error containing %q", c.name, err, c.want)
		}
		if unwound != 3 || ran != 0 || e.live != 0 {
			t.Fatalf("%s: %d of 3 blocked processes unwound, %d ran on after the failure, %d live",
				c.name, unwound, ran, e.live)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	if err := e.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", len(got))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now = %g, want 2.5", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("Run fired %d total events, want 4", len(got))
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including events inserted from within events.
func TestQuickEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		e := NewEnv()
		var fired []float64
		for i := 0; i < count; i++ {
			d := rng.Float64() * 100
			e.Schedule(d, func() {
				fired = append(fired, e.Now())
				if rng.Intn(3) == 0 {
					e.Schedule(rng.Float64()*10, func() {
						fired = append(fired, e.Now())
					})
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of processes passing a baton via signals accumulates
// exactly the sum of their waits.
func TestQuickBatonChain(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 || len(delays) > 64 {
			return true
		}
		e := NewEnv()
		sigs := make([]*Signal, len(delays)+1)
		for i := range sigs {
			sigs[i] = NewSignal(e)
		}
		var total float64
		for i, d := range delays {
			i, d := i, float64(d)/1000
			total += d
			e.Go("link", func(p *Proc) {
				sigs[i].Wait(p)
				p.Wait(d)
				sigs[i+1].Fire()
			})
		}
		var end float64 = -1
		e.Go("tail", func(p *Proc) {
			sigs[len(delays)].Wait(p)
			end = p.Now()
		})
		e.Go("head", func(p *Proc) { sigs[0].Fire() })
		if err := e.Run(); err != nil {
			return false
		}
		return end >= 0 && abs(end-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestOnFireCallbacks(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var order []string
	s.OnFire(func() { order = append(order, "cb1") })
	s.OnFire(func() { order = append(order, "cb2") })
	e.Go("firer", func(p *Proc) {
		p.Wait(1)
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "cb1" || order[1] != "cb2" {
		t.Fatalf("callback order = %v", order)
	}
	// Registering on an already-fired sticky signal fires immediately
	// (via a zero-delay event).
	fired := false
	s.OnFire(func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("late OnFire on sticky signal never ran")
	}
}

func TestNowDuration(t *testing.T) {
	e := NewEnv()
	e.Schedule(1.5e-3, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d := e.NowDuration(); d.Microseconds() != 1500 {
		t.Fatalf("NowDuration = %v", d)
	}
}
