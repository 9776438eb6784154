package encag_test

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"encag"
	"encag/internal/serve"
)

// Every count a session reports has one record. After three 1 KiB o-rd
// ops on a 4-rank, 2-node TCP session, no sample name in the session's
// exposition, or in serve's merged one for the tenant, carries both an
// unlabelled sample and labelled ones, and the per-pair samples of each
// encag_transport_* family sum to the snapshot's total: one frame per
// message the ranks sent.
func TestTransportTotalsArePairSums(t *testing.T) {
	ctx := context.Background()
	spec := encag.Spec{Procs: 4, Nodes: 2}
	tcp := encag.WithEngine(encag.EngineTCP)
	const ops, alg, size = 3, "o-rd", 1 << 10

	t.Run("session", func(t *testing.T) {
		s, err := encag.OpenSession(ctx, spec, tcp)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		msgs := 0
		for i := 0; i < ops; i++ {
			res, err := s.Run(ctx, alg, size)
			if err != nil {
				t.Fatal(err)
			}
			msgs += res.InterMessages + res.IntraMessages
		}
		s.Close() // drains the send schedulers: sender-side counts are final
		snap := s.Snapshot()
		if snap.FramesSent != int64(msgs) || snap.FramesRecv != int64(msgs) {
			t.Errorf("frames sent=%d recv=%d, want one per message sent (%d)", snap.FramesSent, snap.FramesRecv, msgs)
		}
		var b strings.Builder
		if err := s.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		checkOneRecord(t, b.String(), "", snap)
	})

	t.Run("serve", func(t *testing.T) {
		m, err := serve.Open(serve.Config{Spec: spec, SessionOptions: []encag.Option{tcp}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Register("t0", spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops; i++ {
			if _, err := m.Step(ctx, "t0", alg, size); err != nil {
				t.Fatal(err)
			}
		}
		// A TCP sender counts a frame after its write returns, possibly
		// after the step ended: scrape between two equal snapshots.
		var text strings.Builder
		for deadline := time.Now().Add(5 * time.Second); ; {
			before := tenantSession(t, m)
			text.Reset()
			if err := m.WriteMetrics(&text); err != nil {
				t.Fatal(err)
			}
			after := tenantSession(t, m)
			if transportTotals(before) == transportTotals(after) && after.FramesSent == after.FramesRecv {
				checkOneRecord(t, text.String(), `tenant="t0"`, after)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("transport counters never settled: %v", transportTotals(after))
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// tenantSession returns the resident tenant t0's session snapshot.
func tenantSession(t *testing.T, m *serve.Manager) encag.MetricsSnapshot {
	t.Helper()
	for _, tn := range m.Snapshot().Tenants {
		if tn.ID == "t0" && tn.Session != nil {
			return *tn.Session
		}
	}
	t.Fatal("tenant t0 has no resident session")
	return encag.MetricsSnapshot{}
}

func transportTotals(s encag.MetricsSnapshot) [4]int64 {
	return [4]int64{s.FramesSent, s.FramesRecv, s.BytesSent, s.BytesRecv}
}

// checkOneRecord parses a Prometheus text exposition, keeping only the
// samples that carry keep among their labels (all of them when keep is
// empty), and checks the two laws: no sample name mixes an unlabelled
// sample (keep aside) with labelled ones, and each transport family's
// per-pair samples sum to snap's total.
func checkOneRecord(t *testing.T, text, keep string, snap encag.MetricsSnapshot) {
	t.Helper()
	bare := make(map[string]bool)
	labelled := make(map[string]bool)
	sums := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		if keep != "" {
			var ok bool
			if labels, ok = dropLabel(labels, keep); !ok {
				continue
			}
		}
		if labels == "" {
			bare[name] = true
			continue
		}
		labelled[name] = true
		if strings.HasPrefix(name, "encag_transport_") {
			v, err := strconv.ParseInt(line[sp+1:], 10, 64)
			if err != nil {
				t.Fatalf("non-integer transport sample %q", line)
			}
			sums[name] += v
		}
	}
	for name := range bare {
		if labelled[name] {
			t.Errorf("%s has an unlabelled sample beside labelled ones", name)
		}
	}
	for name, want := range map[string]int64{
		"encag_transport_frames_sent_total": snap.FramesSent,
		"encag_transport_frames_recv_total": snap.FramesRecv,
		"encag_transport_bytes_sent_total":  snap.BytesSent,
		"encag_transport_bytes_recv_total":  snap.BytesRecv,
	} {
		if want <= 0 {
			t.Errorf("snapshot %s total is %d after three ops", name, want)
		}
		if sums[name] != want {
			t.Errorf("sum(%s) = %d, snapshot total %d", name, sums[name], want)
		}
	}
}

// dropLabel removes the label pair keep from a comma-separated label
// list, reporting whether it was there.
func dropLabel(labels, keep string) (string, bool) {
	var rest []string
	found := false
	for _, l := range strings.Split(labels, ",") {
		if l == keep {
			found = true
		} else if l != "" {
			rest = append(rest, l)
		}
	}
	return strings.Join(rest, ","), found
}

// The in-flight window has one gauge: every engine exposes
// encag_sched_inflight, encag_sched_window and
// encag_sched_window_waits_total, registered once by the cluster
// session, and no second in-flight family beside them.
func TestWindowFamiliesOnEveryEngine(t *testing.T) {
	for _, engine := range []encag.Engine{encag.EngineChan, encag.EngineTCP, encag.EngineSim} {
		s, err := encag.OpenSession(context.Background(), encag.Spec{Procs: 4, Nodes: 2},
			encag.WithEngine(engine), encag.WithProfile(encag.Noleland()), encag.WithMaxInFlight(3))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		err = s.Metrics().WritePrometheus(&b)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, line := range strings.Split(b.String(), "\n") {
			if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "encag_sched_") {
				got[name] = v
			}
		}
		for name, want := range map[string]string{
			encag.MetricWindow:      "3",
			encag.MetricWindowWaits: "0",
			"encag_sched_inflight":  "0",
		} {
			if got[name] != want {
				t.Errorf("%s: %s = %q, want %q", engine, name, got[name], want)
			}
		}
		for name := range got {
			if strings.Contains(name, "inflight") && name != "encag_sched_inflight" {
				t.Errorf("%s: second in-flight family %s", engine, name)
			}
		}
	}
}
