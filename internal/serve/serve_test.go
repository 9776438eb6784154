package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"encag"
)

// waitFor polls cond for up to d.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// reapBalance returns the two sides of the residency conservation law
// of one Snapshot: every session ever opened is either still resident or
// was reaped, so opened <= accounted always, with equality whenever no
// session is being dialed.
func reapBalance(snap Snapshot) (opened, accounted int64) {
	for _, ts := range snap.Tenants {
		opened += ts.SessionsOpened
	}
	accounted = int64(snap.Resident)
	for _, n := range snap.Reaps {
		accounted += n
	}
	return opened, accounted
}

// checkAtRest asserts the law with equality: nothing is in flight.
func checkAtRest(t *testing.T, m *Manager) {
	t.Helper()
	if opened, accounted := reapBalance(m.Snapshot()); opened != accounted {
		t.Fatalf("at rest: %d sessions opened, resident + reaps = %d", opened, accounted)
	}
}

// TestManagerReapsBalanceResidency churns tenants through every
// lock-side reap path a healthy host takes (lru, idle, evicted,
// shutdown) while a second goroutine snapshots continuously: no
// snapshot may show a session gone from residency without its reap.
func TestManagerReapsBalanceResidency(t *testing.T) {
	// An hour's IdleTTL keeps the real janitor out of it; the test drives
	// sweep itself with a clock past the TTL, so which path reaps which
	// session does not depend on how fast the host steps.
	m, err := Open(Config{Capacity: 2, IdleTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sweepIdle := func() { m.sweep(time.Now().Add(2 * time.Hour)) }
	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				watched <- nil
				return
			default:
			}
			if opened, accounted := reapBalance(m.Snapshot()); opened > accounted {
				watched <- errors.New("snapshot shows a session that left residency uncounted")
				return
			}
		}
	}()
	ids := []string{"a", "b", "c"}
	for i := 0; i < 30; i++ {
		if _, err := m.Step(context.Background(), ids[i%len(ids)], encag.AlgORing, 256); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		switch i % 10 {
		case 4:
			m.Evict(ids[i%len(ids)])
		case 9:
			sweepIdle()
		}
	}
	close(stop)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	sweepIdle()
	checkAtRest(t, m)
	snap := m.Snapshot()
	if snap.Resident != 0 {
		t.Fatalf("resident = %d after an idle sweep, want 0", snap.Resident)
	}
	for _, reason := range []string{ReapLRU, ReapIdle, ReapEvicted} {
		if snap.Reaps[reason] < 1 {
			t.Fatalf("%s reaps = %d, want >= 1 (the churn must take this path)", reason, snap.Reaps[reason])
		}
	}
	if _, err := m.Step(context.Background(), "a", encag.AlgORing, 256); err != nil {
		t.Fatal(err)
	}
	m.Close()
	checkAtRest(t, m)
}

func TestManagerStepAndReuse(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		res, err := m.Step(context.Background(), "t0", encag.AlgORing, 1024)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !res.SecurityOK {
			t.Fatalf("step %d: security violations %v", i, res.Violations)
		}
	}
	snap := m.Snapshot()
	if snap.Resident != 1 || snap.Known != 1 {
		t.Fatalf("resident=%d known=%d, want 1/1", snap.Resident, snap.Known)
	}
	ts := snap.Tenants[0]
	if ts.ID != "t0" || ts.Steps != 3 || ts.SessionsOpened != 1 || !ts.Resident {
		t.Fatalf("tenant rollup %+v, want 3 steps over 1 session", ts)
	}
	if ts.Session == nil {
		t.Fatal("resident tenant missing session snapshot")
	}
	if ts.Session.OpsCompleted != 3 {
		t.Fatalf("session ops completed %d, want 3", ts.Session.OpsCompleted)
	}
}

func TestManagerIdleReapAndReadmit(t *testing.T) {
	m, err := Open(Config{IdleTTL: 40 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Step(context.Background(), "t0", encag.AlgORing, 512); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Resident() == 0 }, "idle reap")
	if got := m.Snapshot().Reaps[ReapIdle]; got < 1 {
		t.Fatalf("idle reaps = %d, want >= 1", got)
	}
	// The tenant readmits transparently on its next step.
	if _, err := m.Step(context.Background(), "t0", encag.AlgORing, 512); err != nil {
		t.Fatalf("readmit step: %v", err)
	}
	snap := m.Snapshot()
	if snap.Tenants[0].SessionsOpened != 2 {
		t.Fatalf("sessions opened = %d, want 2 (reap + readmit)", snap.Tenants[0].SessionsOpened)
	}
}

func TestManagerLRUEviction(t *testing.T) {
	m, err := Open(Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []string{"old", "mid", "new"} {
		if _, err := m.Step(context.Background(), id, encag.AlgORing, 256); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		time.Sleep(2 * time.Millisecond) // order lastUsed
	}
	snap := m.Snapshot()
	if snap.Resident != 2 {
		t.Fatalf("resident = %d, want 2", snap.Resident)
	}
	if snap.Reaps[ReapLRU] != 1 {
		t.Fatalf("lru reaps = %d, want 1", snap.Reaps[ReapLRU])
	}
	for _, ts := range snap.Tenants {
		wantResident := ts.ID != "old"
		if ts.Resident != wantResident {
			t.Fatalf("tenant %s resident=%v, want %v (LRU must evict the oldest)", ts.ID, ts.Resident, wantResident)
		}
	}
}

func TestManagerCapacityAllBusyRejects(t *testing.T) {
	m, err := Open(Config{Capacity: 1, MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(context.Background(), "busy", func(*encag.Session) error {
			close(started)
			<-hold
			return nil
		})
	}()
	<-started
	_, err = m.Step(context.Background(), "other", encag.AlgORing, 256)
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != RejectCapacity {
		t.Fatalf("step at capacity with all tenants busy: %v, want capacity rejection", err)
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatal("rejection does not match ErrRejected")
	}
	close(hold)
	wg.Wait()
	// With the busy tenant idle again, "other" admits by evicting it.
	if _, err := m.Step(context.Background(), "other", encag.AlgORing, 256); err != nil {
		t.Fatalf("step after release: %v", err)
	}
}

func TestManagerQueueBackpressure(t *testing.T) {
	m, err := Open(Config{MaxSteps: 1, MaxQueue: 1, QueueTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(context.Background(), "t0", func(*encag.Session) error {
			close(started)
			<-hold
			return nil
		})
	}()
	<-started

	// One caller fits in the queue and must time out (not hang).
	timedOut := make(chan error, 1)
	queued := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(queued)
		timedOut <- m.Do(context.Background(), "t1", func(*encag.Session) error { return nil })
	}()
	<-queued
	waitFor(t, time.Second, func() bool { return m.adm.queueDepth() == 1 }, "queued caller")

	// The queue is full: the next caller is rejected immediately.
	err = m.Do(context.Background(), "t2", func(*encag.Session) error { return nil })
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != RejectQueueFull {
		t.Fatalf("overflow caller: %v, want queue_full rejection", err)
	}
	if rej.Queued != 1 || rej.InFlight != 1 {
		t.Fatalf("rejection load figures %+v, want queued=1 inflight=1", rej)
	}

	if terr := <-timedOut; !errors.Is(terr, ErrRejected) {
		t.Fatalf("queued caller: %v, want queue_timeout rejection", terr)
	} else if errors.As(terr, &rej); rej.Reason != RejectQueueTimeout {
		t.Fatalf("queued caller reason %q, want queue_timeout", rej.Reason)
	}

	// A queued caller whose own context dies is rejected as cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cancelled <- m.Do(ctx, "t3", func(*encag.Session) error { return nil })
	}()
	waitFor(t, time.Second, func() bool { return m.adm.queueDepth() == 1 }, "cancellable caller queued")
	cancel()
	if cerr := <-cancelled; !errors.As(cerr, &rej) || rej.Reason != RejectCancelled {
		t.Fatalf("cancelled caller: %v, want cancelled rejection", cerr)
	}

	close(hold)
	wg.Wait()
	snap := m.Snapshot()
	if snap.Rejected[RejectQueueFull] != 1 || snap.Rejected[RejectQueueTimeout] != 1 || snap.Rejected[RejectCancelled] != 1 {
		t.Fatalf("rejection counters %v, want one of each queue reason", snap.Rejected)
	}
}

func TestManagerBackgroundRekey(t *testing.T) {
	m, err := Open(Config{RekeyEvery: 30 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Step(context.Background(), "t0", encag.AlgORing, 512); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Snapshot().Rekeys >= 1 }, "background rekey")
	// The rotated session still gathers byte-exact.
	res, err := m.Step(context.Background(), "t0", encag.AlgORing, 512)
	if err != nil || !res.SecurityOK {
		t.Fatalf("post-rekey step: %v (res %+v)", err, res)
	}
	if m.Snapshot().Tenants[0].SessionsOpened != 1 {
		t.Fatal("rekey must rotate keys in place, not reopen the session")
	}
}

// A tenant that is never idle still rotates: one client holds a lease
// and steps inside it for the whole test while a second client steps
// alongside, so the janitor never sees the tenant without a step in
// flight.
func TestManagerRekeysBusyTenant(t *testing.T) {
	m, err := Open(Config{RekeyEvery: 20 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		errs <- m.Do(context.Background(), "t0", func(s *encag.Session) error {
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				if _, err := s.Run(context.Background(), encag.AlgORing, 1024); err != nil {
					return err
				}
			}
		})
	}()
	go func() {
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if res, err := m.Step(context.Background(), "t0", encag.AlgHS2, 1024); err != nil || !res.SecurityOK {
				errs <- fmt.Errorf("step: %v (res %+v)", err, res)
				return
			}
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return m.Snapshot().Rekeys >= 2 }, "rekeys of a busy tenant")
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Snapshot().Tenants[0].SessionsOpened != 1 {
		t.Fatal("rekey must rotate keys in place, not reopen the session")
	}
}

func TestManagerCloseIdempotentAndRefusing(t *testing.T) {
	m, err := Open(Config{IdleTTL: time.Hour, SweepEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), "t0", encag.AlgORing, 256); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); m.Close() }()
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatalf("re-close: %v", err)
	}
	if err := m.Do(context.Background(), "t0", func(*encag.Session) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("step after close: %v, want ErrClosed", err)
	}
	if got := m.Snapshot().Reaps[ReapShutdown]; got != 1 {
		t.Fatalf("shutdown reaps = %d, want 1", got)
	}
}

func TestManagerEvict(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Step(context.Background(), "t0", encag.AlgORing, 256); err != nil {
		t.Fatal(err)
	}
	if !m.Evict("t0") {
		t.Fatal("Evict found no resident session")
	}
	if m.Evict("t0") {
		t.Fatal("second Evict reported a session")
	}
	if m.Resident() != 0 || m.Snapshot().Reaps[ReapEvicted] != 1 {
		t.Fatal("evicted session still counted resident")
	}
}

func TestManagerSharedPoolAcrossTenants(t *testing.T) {
	pool := encag.NewCryptoPool(2)
	defer pool.Close()
	// An explicit segment size forces multi-segment sealing even on one
	// CPU, where the adaptive plan would otherwise never split (and so
	// never exercise the pool).
	m, err := Open(Config{Spec: encag.Spec{Procs: 4, Nodes: 2, SegmentSize: 16 << 10}, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Dispatched
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		id := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Multi-segment payloads so seal work is actually offered to
			// the shared pool.
			if _, err := m.Step(context.Background(), id, encag.AlgORing, 128<<10); err != nil {
				t.Errorf("tenant %s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	if got := pool.Stats().Dispatched; got <= before {
		t.Fatalf("shared pool dispatched %d tasks, want growth over %d", got, before)
	}
	m.Close()
	// The manager must not close a caller-owned pool.
	if pool.Closed() {
		t.Fatal("manager closed the injected pool")
	}
}

func TestManagerWriteMetricsTenantLabels(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []string{"alpha", "beta"} {
		if _, err := m.Step(context.Background(), id, encag.AlgORing, 256); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := m.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`encag_serve_steps_total{tenant="alpha"} 1`,
		`encag_serve_steps_total{tenant="beta"} 1`,
		`encag_session_ops_completed_total{tenant="alpha"} 1`,
		`encag_session_ops_completed_total{tenant="beta"} 1`,
		"# TYPE encag_serve_tenants_resident gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE encag_session_ops_completed_total"); n != 1 {
		t.Fatalf("merged family header appears %d times, want once", n)
	}
}

func TestManagerRegisterPerTenantLayout(t *testing.T) {
	m, err := Open(Config{Spec: encag.Spec{Procs: 4, Nodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Register("wide", encag.Spec{Procs: 8, Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	err = m.Do(context.Background(), "wide", func(s *encag.Session) error {
		if s.Spec().Procs != 8 || s.Spec().Nodes != 4 {
			t.Fatalf("wide tenant spec %+v", s.Spec())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("", encag.Spec{Procs: 2}); err == nil {
		t.Fatal("empty tenant id accepted")
	}
}
