package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"encag"
	"encag/internal/tune"
	"encag/internal/wire"
)

// openServer stands up a Manager with the given tenant session options
// and one registered tenant, t0, behind its HTTP surface on an ephemeral
// loopback port.
func openServer(t *testing.T, opts ...encag.Option) (*Manager, *Server) {
	t.Helper()
	return openServerConfig(t, Config{SessionOptions: opts})
}

// openServerConfig is openServer on a host configured by cfg, whose
// Spec it sets.
func openServerConfig(t *testing.T, cfg Config) (*Manager, *Server) {
	t.Helper()
	spec := encag.Spec{Procs: 4, Nodes: 2}
	cfg.Spec = spec
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Register("t0", spec); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return m, srv
}

// get fetches path from the server and returns the status and body.
func get(t *testing.T, srv *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// step runs one /v1/step request and fails the test unless it answers
// want.
func step(t *testing.T, srv *Server, query string, want int) stepResponse {
	t.Helper()
	code, body := get(t, srv, "/v1/step?"+query)
	var resp stepResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("step %s: body is not JSON: %v\n%s", query, err, body)
	}
	if code != want {
		t.Fatalf("step %s: status %d, want %d: %+v", query, code, want, resp)
	}
	return resp
}

// tenantSamples parses a Prometheus text exposition and returns, per
// bare metric name, the value of each sample labelled tenant="<id>",
// keyed by the sample's full label string.
func tenantSamples(t *testing.T, text, id string) map[string]map[string]float64 {
	t.Helper()
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric sample %q", line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if !strings.Contains(labels, `tenant="`+id+`"`) {
			continue
		}
		if out[name] == nil {
			out[name] = make(map[string]float64)
		}
		out[name][labels] = v
	}
	return out
}

// The host's HTTP surface end to end on a pipelined TCP tenant whose
// alg=auto reads a tuning table: both steps succeed, the tenant's
// session families reach /metrics with its label, /debug/vars is JSON,
// pprof answers, and Close stops the server.
func TestServerHTTPSurface(t *testing.T) {
	// hs2 wins the 64 KiB cell by a margin the one o-ring step below
	// cannot overturn (refinement needs three samples of an algorithm).
	table := &tune.Table{Version: tune.Version, Cells: []tune.Cell{{
		Key: tune.Key{Bucket: tune.BucketOf(64 << 10), P: 4, N: 2,
			Engine: string(encag.EngineTCP), Pipelined: true},
		Best:      "hs2",
		LatencyNS: map[string]float64{"o-ring": 500, "o-rd2": 500, "c-rd": 500, "hs2": 100},
	}}}
	m, srv := openServer(t, encag.WithEngine(encag.EngineTCP), encag.WithPipelining(true),
		encag.WithTuningTable(table))
	if err := m.Register("t1", encag.Spec{Procs: 4, Nodes: 2}); err != nil {
		t.Fatal(err)
	}

	if r := step(t, srv, "tenant=t0&alg=o-ring&size=65536", http.StatusOK); !r.OK {
		t.Fatalf("o-ring step: %+v", r)
	}
	if r := step(t, srv, "tenant=t0&alg=auto&size=65536", http.StatusOK); !r.OK {
		t.Fatalf("auto step: %+v", r)
	}
	if r := step(t, srv, "tenant=t1&alg=o-ring&size=4096", http.StatusOK); !r.OK {
		t.Fatalf("t1 step: %+v", r)
	}

	code, text := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	samples := tenantSamples(t, text, "t0")
	// The session families encag's TestDebugServerLiveTCP asserts on
	// WritePrometheus, here through the host's merged exposition. The
	// tenants seal on the host's one pool, which the host reports once
	// (encag_serve_pool_*): no tenant session exports it again.
	for _, f := range []struct {
		family  string
		present bool
	}{
		{"encag_session_ops_started_total", true},
		{"encag_session_op_latency_ns_count", true},
		{"encag_session_wire_bytes_total", true},
		{"encag_sched_inflight", true},
		{"encag_sched_queue_depth", true},
		{"encag_sched_window", true},
		{"encag_sched_window_waits_total", true},
		{"encag_seal_pool_size", false},
		{"encag_seal_pool_busy", false},
		{"encag_seal_segments_sealed_total", true},
		{"encag_transport_frames_sent_total", true},
		{"encag_transport_bytes_recv_total", true},
		{"encag_fault_injected_total", true},
		{"encag_fault_reconnects_total", true},
		{"encag_fault_recv_timeouts_total", true},
	} {
		if got := len(samples[f.family]) > 0; got != f.present {
			t.Errorf("/metrics has tenant-labelled %s: %v, want %v", f.family, got, f.present)
		}
	}
	if t1 := tenantSamples(t, text, "t1"); len(t1["encag_session_ops_started_total"]) == 0 || len(t1["encag_seal_pool_size"]) != 0 {
		t.Errorf("tenant t1's families: ops started %v, pool size %v; want the first only", t1["encag_session_ops_started_total"], t1["encag_seal_pool_size"])
	}
	var poolSizes []string
	for _, line := range strings.Split(text, "\n") {
		if name, _, _ := strings.Cut(line, " "); strings.HasPrefix(name, "encag_serve_pool_size") {
			poolSizes = append(poolSizes, line)
		}
	}
	if want := fmt.Sprintf("encag_serve_pool_size %d", m.Pool().Size()); len(poolSizes) != 1 || poolSizes[0] != want {
		t.Errorf("/metrics pool size samples %q, want exactly %q", poolSizes, want)
	}
	if v := samples["encag_session_ops_started_total"][`tenant="t0"}`]; v != 2 {
		t.Errorf("ops started = %v, want 2", v)
	}
	if v := samples["encag_pipeline_segments_recv_total"][`tenant="t0"}`]; v <= 0 {
		t.Errorf("pipeline segments received = %v, want > 0 after a pipelined 64 KiB o-ring", v)
	}
	if v := samples["encag_auto_selected_total"][`alg="hs2",tenant="t0"}`]; v != 1 {
		t.Errorf("auto selections of the table's pick hs2 = %v, want 1 (%v)", v, samples["encag_auto_selected_total"])
	}

	code, vars := get(t, srv, "/debug/vars")
	var decoded map[string]json.RawMessage
	if code != http.StatusOK || json.Unmarshal([]byte(vars), &decoded) != nil {
		t.Fatalf("/debug/vars: status %d, not a JSON object:\n%s", code, vars)
	}
	for _, key := range []string{"cmdline", "memstats", "encag_serve"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("/debug/vars has no %q key", key)
		}
	}
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}

	srv.Close()
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
}

// A step size beyond maxStepSize is refused before anything allocates
// it, and the host keeps serving.
func TestServerRejectsOversizedStep(t *testing.T) {
	if maxStepSize > wire.MaxChunk {
		t.Fatalf("maxStepSize %d exceeds wire.MaxChunk %d", maxStepSize, wire.MaxChunk)
	}
	_, srv := openServer(t)
	for _, q := range []string{
		"tenant=t0&size=1099511627776",
		"tenant=t0&op=allreduce&size=1099511627776",
		fmt.Sprintf("tenant=t0&size=%d", maxStepSize+1),
	} {
		if r := step(t, srv, q, http.StatusBadRequest); r.Error != "bad size parameter" {
			t.Errorf("step %s: error %q, want bad size parameter", q, r.Error)
		}
	}
	if r := step(t, srv, "tenant=t0&size=4096", http.StatusOK); !r.OK {
		t.Fatalf("normal step after the refusals: %+v", r)
	}
}

// A tenant the host never registered is refused with 404 before any
// session opens: outside input creates no tenant, no resident session
// and no metric family. A registered tenant still steps.
func TestServerRefusesUnknownTenant(t *testing.T) {
	m, srv := openServer(t)
	for _, q := range []string{
		"tenant=stranger0",
		"tenant=stranger1&op=allreduce",
		"tenant=stranger2&faultseed=7",
	} {
		if r := step(t, srv, q, http.StatusNotFound); r.Error != "unknown tenant" {
			t.Errorf("step %s: error %q, want unknown tenant", q, r.Error)
		}
	}
	if ids, n := m.Tenants(), m.Resident(); len(ids) != 1 || ids[0] != "t0" || n != 0 {
		t.Fatalf("after refused steps: tenants %v, resident %d; want [t0], 0", ids, n)
	}
	if _, text := get(t, srv, "/metrics"); strings.Contains(text, "stranger") {
		t.Fatal("a refused tenant appears in the metrics")
	}
	if r := step(t, srv, "tenant=t0", http.StatusOK); !r.OK {
		t.Fatalf("registered tenant: %+v", r)
	}
}

// /v1/step runs only encrypted algorithms and auto: a plaintext
// algorithm, which would send the tenant's payload across nodes in the
// clear, answers 400 naming the policy and opens no session, and the
// tenant's encrypted and auto steps still succeed.
func TestServerRefusesPlaintextAlgorithms(t *testing.T) {
	m, srv := openServer(t)
	for _, alg := range []string{"plain-ring", "plain-hier"} {
		r := step(t, srv, "tenant=t0&alg="+alg, http.StatusBadRequest)
		if !strings.Contains(r.Error, "not encrypted") || !strings.Contains(r.Error, alg) {
			t.Errorf("alg=%s: error %q, want it to name the algorithm and the encryption policy", alg, r.Error)
		}
	}
	if ids, n := m.Tenants(), m.Resident(); len(ids) != 1 || ids[0] != "t0" || n != 0 {
		t.Fatalf("after refused steps: tenants %v, resident %d; want [t0], 0", ids, n)
	}
	for _, alg := range []string{"o-ring", "auto"} {
		if r := step(t, srv, "tenant=t0&alg="+alg, http.StatusOK); !r.OK {
			t.Fatalf("alg=%s: %+v", alg, r)
		}
	}
}

// A step's faultseed arms a fault plan on its tenant's session only on a
// host that consented (Config.Chaos, serve -chaos). Elsewhere it answers
// 403 before any session opens, and a step without one still runs; on
// a chaos host the seeded step runs, its transient faults injected and
// recovered.
func TestServerFaultSeedNeedsChaos(t *testing.T) {
	injected := func(srv *Server) float64 {
		_, text := get(t, srv, "/metrics")
		var n float64
		for _, v := range tenantSamples(t, text, "t0")["encag_fault_injected_total"] {
			n += v
		}
		return n
	}
	for _, chaos := range []bool{false, true} {
		m, srv := openServerConfig(t, Config{Chaos: chaos})
		if !chaos {
			for _, q := range []string{"tenant=t0&faultseed=7", "tenant=t0&op=allreduce&faultseed=9", "tenant=t0&faultseed=bad"} {
				if r := step(t, srv, q, http.StatusForbidden); !strings.Contains(r.Error, "serve -chaos") {
					t.Errorf("step %s: error %q, want it to name serve -chaos", q, r.Error)
				}
			}
			if n := m.Resident(); n != 0 {
				t.Fatalf("refused fault steps opened %d sessions", n)
			}
			if r := step(t, srv, "tenant=t0&faultseed=0", http.StatusOK); !r.OK {
				t.Fatalf("a zero faultseed arms nothing and runs: %+v", r)
			}
			if n := injected(srv); n != 0 {
				t.Fatalf("%v faults injected on a host without chaos", n)
			}
			continue
		}
		if r := step(t, srv, "tenant=t0&faultseed=bad", http.StatusBadRequest); r.Error != "bad faultseed parameter" {
			t.Errorf("chaos host: bad seed answered %q", r.Error)
		}
		for seed := 1; injected(srv) == 0; seed++ {
			if seed > 20 {
				t.Fatal("20 seeded steps on a chaos host injected no fault")
			}
			if r := step(t, srv, fmt.Sprintf("tenant=t0&faultseed=%d", seed), http.StatusOK); !r.OK {
				t.Fatalf("seeded step %d on a chaos host: %+v", seed, r)
			}
		}
	}
}
