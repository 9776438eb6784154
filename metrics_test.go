package encag

import (
	"bufio"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Live metrics under concurrent in-flight collectives: counters must be
// monotone and consistent, the in-flight gauges must return to zero
// once the window drains, and the latency quantiles must be sane.
func TestSessionMetricsConcurrent(t *testing.T) {
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		t.Run(string(engine), func(t *testing.T) {
			spec := Spec{Procs: 8, Nodes: 2}
			s, err := OpenSession(context.Background(), spec,
				WithEngine(engine), WithMaxInFlight(3))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// The first three ops hold the window of 3 until the next Start
			// waits for it, so backpressure happens by construction.
			const ops = 12
			held, open := gated(t, "gated", nil)
			defer open()
			var wg sync.WaitGroup
			for i := 0; i < ops; i++ {
				alg := Alg("hs2")
				if i < 3 {
					alg = held
				} else if i == 3 {
					go func() {
						for s.Snapshot().WindowWaits == 0 {
							time.Sleep(time.Millisecond)
						}
						open()
					}()
				}
				h, err := s.Start(context.Background(), alg, 2048)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := h.Wait(); err != nil {
						t.Error(err)
					}
				}()
			}
			if err := s.WaitAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			// A TCP sender counts a frame after its write returns, which
			// can be after the receiver has counted it and finished the
			// collective: give the last senders a moment to catch up.
			snap := s.Snapshot()
			for deadline := time.Now().Add(time.Second); snap.FramesRecv > snap.FramesSent && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				snap = s.Snapshot()
			}
			if snap.OpsStarted != ops || snap.OpsCompleted != ops {
				t.Errorf("started=%d completed=%d, want %d each", snap.OpsStarted, snap.OpsCompleted, ops)
			}
			if snap.OpsFailed != 0 || snap.OpsCancelled != 0 || snap.Poisonings != 0 {
				t.Errorf("failed=%d cancelled=%d poisonings=%d, want 0",
					snap.OpsFailed, snap.OpsCancelled, snap.Poisonings)
			}
			if snap.InFlight != 0 {
				t.Errorf("inflight=%d after WaitAll, want 0", snap.InFlight)
			}
			if snap.Window != 3 {
				t.Errorf("window=%d, want 3", snap.Window)
			}
			if snap.WindowWaits <= 0 {
				t.Errorf("window waits=%d, want > 0", snap.WindowWaits)
			}
			lat := snap.OpLatency
			if lat.Count != ops {
				t.Errorf("latency count=%d, want %d", lat.Count, ops)
			}
			if lat.P50 <= 0 || lat.P50 > lat.P95 || lat.P95 > lat.P99 || lat.P99 > lat.Max {
				t.Errorf("latency quantiles not monotone: %+v", lat)
			}
			// Every collective moves frames and seals segments; totals must
			// be positive and recv can never exceed sent (frames can be
			// lost, never invented).
			if snap.FramesSent <= 0 || snap.BytesSent <= 0 {
				t.Errorf("transport sent counters empty: frames=%d bytes=%d", snap.FramesSent, snap.BytesSent)
			}
			if snap.FramesRecv > snap.FramesSent {
				t.Errorf("recv %d frames > sent %d", snap.FramesRecv, snap.FramesSent)
			}
			if snap.SegmentsSealed <= 0 || snap.SegmentsOpened <= 0 {
				t.Errorf("seal counters empty: sealed=%d opened=%d", snap.SegmentsSealed, snap.SegmentsOpened)
			}
			if engine == EngineTCP && snap.WireBytes <= 0 {
				t.Error("tcp session reports no wire bytes")
			}

			// A later batch only grows the monotone counters, and the
			// RunResult reports the op id the registry counted.
			res, err := s.Run(context.Background(), "hs2", 2048)
			if err != nil {
				t.Fatal(err)
			}
			if res.OpID != ops+1 {
				t.Errorf("op id = %d, want %d", res.OpID, ops+1)
			}
			snap2 := s.Snapshot()
			if snap2.OpsCompleted != snap.OpsCompleted+1 || snap2.FramesSent <= snap.FramesSent {
				t.Errorf("counters not monotone across batches: ops %d -> %d, frames %d -> %d",
					snap.OpsCompleted, snap2.OpsCompleted, snap.FramesSent, snap2.FramesSent)
			}
		})
	}
}

// Rekey must keep the sealed/opened totals monotone (the retiring
// sealer's counts fold into the session bases) and count the rotation.
func TestSessionMetricsRekey(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), "hs2", 1024); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	if before.SegmentsSealed <= 0 {
		t.Fatal("no sealed segments before rekey")
	}
	if err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "hs2", 1024); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot()
	if after.Rekeys != 1 {
		t.Errorf("rekeys=%d, want 1", after.Rekeys)
	}
	if after.SegmentsSealed <= before.SegmentsSealed {
		t.Errorf("sealed total not monotone across rekey: %d -> %d",
			before.SegmentsSealed, after.SegmentsSealed)
	}

	// An injected pool outlives every sealer Rekey installs: its size
	// holds and its saturation counter never restarts.
	pool := NewCryptoPool(1)
	defer pool.Close()
	ps, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2, SegmentSize: 256}, WithCryptoPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.Run(context.Background(), "hs2", 4096); err != nil {
		t.Fatal(err)
	}
	before = ps.Snapshot()
	if st := pool.Stats(); st.Dispatched+st.Saturated == 0 {
		t.Fatal("the injected pool saw no segmented work")
	}
	if err := ps.Rekey(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Run(context.Background(), "hs2", 4096); err != nil {
		t.Fatal(err)
	}
	after = ps.Snapshot()
	if before.PoolSize != 1 || after.PoolSize != before.PoolSize {
		t.Errorf("pool size across rekey: %d -> %d, want 1 throughout", before.PoolSize, after.PoolSize)
	}
	if after.PoolSaturated < before.PoolSaturated {
		t.Errorf("pool saturation counter went down across rekey: %d -> %d",
			before.PoolSaturated, after.PoolSaturated)
	}
}

// Injected faults show up in the per-kind counters without failing the
// collective (a stall is recoverable), and the kind label matches the
// fault package's naming.
func TestSessionMetricsFaults(t *testing.T) {
	for _, eng := range []Engine{EngineChan, EngineTCP} {
		for _, kind := range []FaultKind{FaultStall, FaultStallRead} {
			t.Run(string(eng)+"/"+kind.String(), func(t *testing.T) {
				s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(eng))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				plan := &FaultPlan{Rules: []FaultRule{
					{Src: -1, Dst: -1, Frame: -1, Kind: kind, Delay: time.Millisecond, Times: 3},
				}}
				if _, err := s.Run(context.Background(), "hs2", 1024, WithFaultPlan(plan)); err != nil {
					t.Fatal(err)
				}
				snap := s.Snapshot()
				if snap.FaultsInjected[kind.String()] < 1 {
					t.Errorf("%v faults=%d, want >= 1 (all: %v)", kind, snap.FaultsInjected[kind.String()], snap.FaultsInjected)
				}
				// Every kind label is present in the snapshot even when it
				// never fired — the families register eagerly at zero.
				for _, k := range []string{"drop", "corrupt", "stall", "stall-read", "partial-write"} {
					if _, ok := snap.FaultsInjected[k]; !ok {
						t.Errorf("fault kind %q missing from snapshot: %v", k, snap.FaultsInjected)
					}
				}
				if snap.OpsFailed != 0 {
					t.Errorf("%v should not fail the op: failed=%d", kind, snap.OpsFailed)
				}
			})
		}
	}
}

// A cancelled in-flight operation lands in the cancelled counter, not
// the failed one, and does not poison the session.
func TestSessionMetricsCancel(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Per-frame stalls keep the op in flight long enough to cancel it
	// deterministically mid-run.
	plan := &FaultPlan{Rules: []FaultRule{
		{Src: -1, Dst: -1, Frame: -1, Kind: FaultStall, Delay: 20 * time.Millisecond, Times: -1},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	h, err := s.Start(ctx, "hs2", 1<<16, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := h.Err(); err == nil {
		t.Fatal("cancelled op completed")
	}
	snap := s.Snapshot()
	if snap.OpsCancelled != 1 || snap.OpsFailed != 0 {
		t.Errorf("cancelled=%d failed=%d, want 1/0", snap.OpsCancelled, snap.OpsFailed)
	}
	if snap.Poisonings != 0 {
		t.Errorf("poisonings=%d after op-scoped cancel, want 0", snap.Poisonings)
	}
	if _, err := s.Run(context.Background(), "hs2", 256); err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
}

// The acceptance scenario: a live TCP session with at least two
// collectives in flight must expose valid Prometheus text containing
// the session, scheduler, seal-pool, transport and fault/recovery
// metric families. The HTTP endpoints that serve this text are
// encag serve's, tested in internal/serve.
func TestDebugServerLiveTCP(t *testing.T) {
	spec := Spec{Procs: 4, Nodes: 2}
	s, err := OpenSession(context.Background(), spec,
		WithEngine(EngineTCP), WithMaxInFlight(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Delay every read on every pair so the collectives stay in flight
	// across the scrape.
	plan := &FaultPlan{Rules: []FaultRule{
		{Src: -1, Dst: -1, Kind: FaultStallRead, Delay: 15 * time.Millisecond, Times: -1},
	}}
	var hs []*Handle
	for i := 0; i < 3; i++ {
		h, err := s.Start(context.Background(), "hs2", 4096, WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// Wait on the session's own counters, not the window: Start holds a
	// window slot before its goroutine reaches the session, so under CPU
	// contention the window can be full while nothing has started yet.
	deadline := time.Now().Add(5 * time.Second)
	for snap := s.Snapshot(); snap.OpsStarted < 3 || snap.InFlight < 2; snap = s.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("never reached 3 started and 2 in-flight collectives (at %d, %d)", snap.OpsStarted, snap.InFlight)
		}
		time.Sleep(time.Millisecond)
	}

	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := validatePrometheus(t, b.String())
	for _, family := range []string{
		"encag_session_ops_started_total",
		"encag_session_op_latency_ns_count",
		"encag_session_wire_bytes_total",
		"encag_sched_inflight",
		"encag_sched_queue_depth",
		"encag_sched_window",
		"encag_sched_window_waits_total",
		"encag_seal_pool_size",
		"encag_seal_pool_busy",
		"encag_seal_segments_sealed_total",
		"encag_transport_frames_sent_total",
		"encag_transport_bytes_recv_total",
		"encag_fault_injected_total",
		"encag_fault_reconnects_total",
		"encag_fault_recv_timeouts_total",
	} {
		if _, ok := samples[family]; !ok {
			t.Errorf("exposition missing family %s", family)
		}
	}
	if v := samples["encag_sched_inflight"]; v < 2 {
		t.Errorf("scraped in-flight gauge = %v with >= 2 ops live", v)
	}
	if v := samples["encag_session_ops_started_total"]; v < 3 {
		t.Errorf("scraped ops started = %v, want >= 3", v)
	}

	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// WritePrometheus on the session's registry is valid without the HTTP
// server, and the one-op counters read back exactly.
func TestMetricsWritePrometheusDirect(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), "hs2", 512); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := validatePrometheus(t, b.String())
	if samples["encag_session_ops_completed_total"] != 1 {
		t.Errorf("ops completed = %v, want 1", samples["encag_session_ops_completed_total"])
	}
	if samples["encag_session_op_latency_ns_count"] != 1 {
		t.Errorf("latency count = %v, want 1", samples["encag_session_op_latency_ns_count"])
	}
}

// validatePrometheus parses the text exposition line by line — every
// non-comment line must be "name[{labels}] value" with a numeric value —
// and returns the first sample value per bare metric name.
func validatePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		if _, seen := samples[name]; !seen {
			samples[name] = val
		}
	}
	if n == 0 {
		t.Fatal("empty exposition")
	}
	return samples
}
