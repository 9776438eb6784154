package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"encag"
)

// tenantData builds tenant-unique deterministic per-rank contributions,
// so cross-tenant contamination would be visible byte-for-byte.
func tenantData(id string, procs, size int) [][]byte {
	var tag byte
	for i := 0; i < len(id); i++ {
		tag = tag*31 + id[i]
	}
	data := make([][]byte, procs)
	for r := range data {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = tag ^ byte(r*167) ^ byte(i)
		}
		data[r] = buf
	}
	return data
}

// checkGather verifies every rank assembled exactly every origin's
// contribution.
func checkGather(id string, data [][]byte, res *encag.RunResult) error {
	if !res.SecurityOK {
		return fmt.Errorf("tenant %s: security violations %v", id, res.Violations)
	}
	for rank, view := range res.Gathered {
		if len(view) != len(data) {
			return fmt.Errorf("tenant %s rank %d: %d blocks, want %d", id, rank, len(view), len(data))
		}
		for origin, got := range view {
			if !bytes.Equal(got, data[origin]) {
				return fmt.Errorf("tenant %s rank %d: origin %d block corrupted", id, rank, origin)
			}
		}
	}
	return nil
}

// TestAcceptanceMultiTenantHost is the PR's acceptance bar, in one
// process under -race:
//
//  1. 64 chan-engine tenants plus one TCP victim resident at once over
//     one shared crypto pool;
//  2. every tenant's all-gather byte-exact while the victim's mesh is
//     poisoned by a corrupt fault plan (wire-level, ErrSessionBroken);
//  3. the victim reaped (reason "poisoned") and transparently
//     readmitted on its next step;
//  4. saturating admission answered with a structured *RejectionError,
//     never a hang;
//  5. the per-tenant metrics rollup reflecting all of it.
func TestAcceptanceMultiTenantHost(t *testing.T) {
	const tenants = 64
	// The steps below move 1–2 KiB per rank. Under the default 64 KiB
	// segment size every seal is a single segment, which the sealer runs
	// on the calling goroutine without ever offering it to the pool — so
	// the shared-pool assertion at the end could not hold on any host,
	// however well WithCryptoPool is wired. A 1 KiB segment size makes
	// the 2 KiB steps seal as two segments, so the run exercises the
	// claim it asserts.
	cfg := Config{
		Spec:         encag.Spec{Procs: 4, Nodes: 2, SegmentSize: 1 << 10},
		MaxSteps:     16,
		MaxQueue:     8,
		QueueTimeout: 30 * time.Second,
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The victim runs over TCP — the only engine whose wire a corrupt
	// fault rule can poison beyond recovery. A short recv deadline
	// bounds the stalled-reader path.
	victimSpec := encag.Spec{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second}
	if err := m.Register("victim", victimSpec, encag.WithEngine(encag.EngineTCP)); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}

	// Phase 1: all tenants resident at once over the one shared pool.
	for _, id := range append(append([]string(nil), ids...), "victim") {
		if err := m.Warm(context.Background(), id); err != nil {
			t.Fatalf("warm %s: %v", id, err)
		}
	}
	if got := m.Resident(); got < tenants {
		t.Fatalf("resident sessions = %d, want >= %d", got, tenants)
	}

	// stepAll gathers concurrently on every sibling tenant and verifies
	// byte-exactness. The test-side gate keeps concurrency inside
	// MaxSteps+MaxQueue so admission never rejects healthy load here.
	stepAll := func(size int) {
		t.Helper()
		gate := make(chan struct{}, cfg.MaxSteps+cfg.MaxQueue/2)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			gate <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-gate }()
				data := tenantData(id, cfg.Spec.Procs, size)
				res, err := m.Allgather(context.Background(), id, encag.AlgORing, data)
				if err != nil {
					t.Errorf("tenant %s: %v", id, err)
					return
				}
				if err := checkGather(id, data, res); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	stepAll(2048)

	// Phase 2+3: poison the victim while siblings keep gathering.
	poison := &encag.FaultPlan{Rules: []encag.FaultRule{
		// Flipping byte 0 of the first frame on the inter-node 1->2
		// socket corrupts the wire framing itself (bad magic):
		// unrecoverable, mesh down.
		{Src: 1, Dst: 2, Frame: 0, Kind: encag.FaultCorrupt, Offset: 0},
	}}
	sibDone := make(chan struct{})
	go func() {
		defer close(sibDone)
		stepAll(1024)
	}()
	_, perr := m.Step(context.Background(), "victim", encag.AlgORing, 4096, encag.WithFaultPlan(poison))
	if perr == nil {
		t.Fatal("poisoned step succeeded")
	}
	if errors.Is(perr, ErrRejected) {
		t.Fatalf("poisoned step rejected instead of executed: %v", perr)
	}
	<-sibDone
	if t.Failed() {
		t.Fatal("sibling gathers corrupted while victim was being poisoned")
	}
	waitFor(t, 10*time.Second, func() bool {
		return m.Snapshot().Reaps[ReapPoisoned] >= 1
	}, "poisoned reap")

	// Phase 3: siblings still byte-exact after the blast; the victim
	// readmits transparently on its next step.
	stepAll(2048)
	vdata := tenantData("victim", victimSpec.Procs, 2048)
	res, err := m.Allgather(context.Background(), "victim", encag.AlgORing, vdata)
	if err != nil {
		t.Fatalf("victim readmission step: %v", err)
	}
	if err := checkGather("victim", vdata, res); err != nil {
		t.Fatal(err)
	}

	// Phase 4: saturate the step gate — MaxSteps held + MaxQueue queued
	// — and require the overflow caller to get a structured rejection
	// immediately, not a hang.
	hold := make(chan struct{})
	var running sync.WaitGroup
	started := make(chan struct{}, cfg.MaxSteps)
	for i := 0; i < cfg.MaxSteps; i++ {
		id := ids[i]
		running.Add(1)
		go func() {
			defer running.Done()
			m.Do(context.Background(), id, func(*encag.Session) error {
				started <- struct{}{}
				<-hold
				return nil
			})
		}()
	}
	for i := 0; i < cfg.MaxSteps; i++ {
		<-started
	}
	for i := 0; i < cfg.MaxQueue; i++ {
		id := ids[cfg.MaxSteps+i]
		running.Add(1)
		go func() {
			defer running.Done()
			m.Do(context.Background(), id, func(*encag.Session) error { return nil })
		}()
	}
	waitFor(t, 10*time.Second, func() bool { return int(m.adm.queueDepth()) == cfg.MaxQueue }, "full queue")
	overflow := make(chan error, 1)
	go func() {
		overflow <- m.Do(context.Background(), "victim", func(*encag.Session) error { return nil })
	}()
	select {
	case oerr := <-overflow:
		var rej *RejectionError
		if !errors.As(oerr, &rej) || !errors.Is(oerr, ErrRejected) {
			t.Fatalf("overflow caller: %v, want structured rejection", oerr)
		}
		if rej.Reason != RejectQueueFull || rej.Tenant != "victim" {
			t.Fatalf("rejection %+v, want queue_full for victim", rej)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("saturated admission hung instead of rejecting")
	}
	close(hold)
	running.Wait()

	// Phase 5: the rollup tells the whole story.
	checkAtRest(t, m)
	snap := m.Snapshot()
	if snap.Resident < tenants {
		t.Fatalf("final resident = %d, want >= %d", snap.Resident, tenants)
	}
	if snap.Reaps[ReapPoisoned] < 1 {
		t.Fatalf("poisoned reaps = %d, want >= 1", snap.Reaps[ReapPoisoned])
	}
	if snap.Rejected[RejectQueueFull] < 1 {
		t.Fatalf("queue_full rejections = %d, want >= 1", snap.Rejected[RejectQueueFull])
	}
	byID := make(map[string]TenantStatus, len(snap.Tenants))
	for _, ts := range snap.Tenants {
		byID[ts.ID] = ts
	}
	for _, id := range ids {
		ts := byID[id]
		if ts.Steps < 3 || ts.Failures != 0 {
			t.Fatalf("tenant %s rollup %+v, want >=3 clean steps", id, ts)
		}
		if ts.SessionsOpened != 1 {
			t.Fatalf("tenant %s reopened %d times; sibling meshes must be untouched", id, ts.SessionsOpened)
		}
		if ts.Session == nil || ts.Session.OpsFailed != 0 {
			t.Fatalf("tenant %s session snapshot %+v, want zero failed ops", id, ts.Session)
		}
	}
	v := byID["victim"]
	if v.SessionsOpened != 2 {
		t.Fatalf("victim sessions opened = %d, want 2 (original + readmission)", v.SessionsOpened)
	}
	if v.Failures < 1 {
		t.Fatalf("victim failures = %d, want >= 1", v.Failures)
	}
	if got := snap.Pool.Dispatched + snap.Pool.Saturated; got == 0 && snap.Pool.Size > 1 {
		t.Fatal("shared pool saw no crypto traffic")
	}
}
