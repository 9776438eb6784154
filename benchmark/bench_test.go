package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark re-executes its own binary for every workload; under
// `go test` that binary is the test binary, so a child invocation is
// routed to main before the testing package sees the flags.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, med, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if xs[0] != 7 {
		t.Fatal("quartiles reordered its input")
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, med, q3 = quartiles([]float64{40, 10, 20})
	if !near(q1, 10) || !near(med, 20) || !near(q3, 40) {
		t.Fatalf("quartiles of 3 = %v %v %v", q1, med, q3)
	}
	if got := median([]float64{4}); got != 4 {
		t.Fatalf("median of one = %v", got)
	}
	if got := iqrRatio(xs); !near(got, 5.5/5.5) {
		t.Fatalf("iqrRatio = %v, want 1", got)
	}
	// The middle half of 1..8 with an outlier on each side is 3..6.
	if got := midmean([]float64{-100, 2, 3, 4, 5, 6, 7, 900}); !near(got, 4.5) {
		t.Fatalf("midmean = %v, want 4.5", got)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		pct, at float64
	}{
		{24000, 0.99, 23760}, // p99 has 240 samples beyond it
		{1000, 0.99, 990},    // exactly ten beyond
		{500, 0.98, 490},     // p99 would leave five: fall back to the rank with ten beyond
		{11, 1.0 / 11, 1},    // only the lowest sample has ten beyond it
		{10, 0.5, 5.5},       // no tail at all: the median
	}
	for _, c := range cases {
		pct, v := tailPercentile(ramp(c.n), 0.99)
		if !near(pct, c.pct) || !near(v, c.at) {
			t.Errorf("n=%d: got p%.4f = %v, want p%.4f = %v", c.n, pct, v, c.pct, c.at)
		}
	}
}

func TestHostNormalisationUndoesASlowdown(t *testing.T) {
	const ref, trueUS = 5000.0, 800.0
	for _, speed := range []float64{0.8, 1, 1.25} {
		// A host running at `speed` times the reference stretches the
		// operation and slows the calibration kernel by the same factor.
		measuredUS, calib := trueUS/speed, ref*speed
		if got := measuredUS * hostFactor(calib, ref); !near(got, trueUS) {
			t.Errorf("speed %.2f: normalised latency %v, want %v", speed, got, trueUS)
		}
		measuredRate := 1e6 / measuredUS
		if got := measuredRate / hostFactor(calib, ref); !near(got, 1e6/trueUS) {
			t.Errorf("speed %.2f: normalised rate %v, want %v", speed, got, 1e6/trueUS)
		}
	}
	if hostFactor(0, ref) != 1 {
		t.Error("a failed calibration must leave times unchanged")
	}
}

func TestHarnessAllocationsAreSubtracted(t *testing.T) {
	if got := perOpNet(1000*105, 5, 1000); !near(got, 100) {
		t.Errorf("perOpNet = %v, want 100", got)
	}
	if got := perOpNet(10, 5, 1000); got != 0 {
		t.Errorf("perOpNet below the harness cost = %v, want 0", got)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	// The slice machinery itself: nothing for one client, a few objects
	// per chunk for the goroutines of several.
	for clients, limit := range map[int]float64{1: 0.01, 2: 0.5} {
		allocs, _ := harnessCost(cal, clients, 2000, 20)
		if allocs > limit {
			t.Errorf("%d clients: the harness allocates %v objects per operation", clients, allocs)
		}
	}
	// An operation that allocates is charged in full once that is removed.
	sl := &slice{ops: 2000, cal: cal, lat: make([]float64, 0, 2000)}
	var sink [][]byte
	sl.each(1, func(int, int) bool { sink = append(sink[:0], make([]byte, 64)); return true })
	harness, _ := harnessCost(cal, 1, 2000, 0)
	if got := perOpNet(float64(sl.mallocs), harness, sl.ops); got < 0.99 || got > 1.05 {
		t.Errorf("one allocation per operation measured as %v", got)
	}
}

func TestCalibrationKernelDoesNotAllocate(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { cal.run() }); n != 0 {
		t.Fatalf("calibration allocates %v objects per run", n)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Layer: "encag", Start: 0, End: 100 * ms},                   // 1
		{Layer: "cluster", Start: 10 * ms, End: 60 * ms, Parent: 1}, // 2: covers 50
		{Layer: "seal", Start: 40 * ms, End: 80 * ms, Parent: 1},    // 3: overlaps 2 by 20, adds 20
		{Layer: "seal", Start: 90 * ms, End: 120 * ms, Parent: 1},   // 4: clipped to the parent, adds 10
		{Layer: "wire", Start: 20 * ms, End: 30 * ms, Parent: 2},    // 5: child of 2
		{Layer: "wire", Start: 0, End: -1},                          // never ended: ignored
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"encag":   20 * ms,       // 100 - (50 + 20 + 10)
		"cluster": 40 * ms,       // 50 - 10
		"seal":    40*ms + 30*ms, // both seal spans have no children
		"wire":    10 * ms,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], d)
		}
	}
	top := rankLayers(self)
	if top[0].Layer != "seal" || top[1].Layer != "cluster" {
		t.Errorf("ranking = %+v", top)
	}
}

func TestSizedKeepsTheMixBalanced(t *testing.T) {
	for _, w := range workloads() {
		for _, seconds := range []float64{quickSeconds, 5, 15, refSeconds} {
			slices, ops := w.sized(seconds)
			if slices < 1 || ops < 1 {
				t.Errorf("%s at %vs: %d slices x %d ops", w.name, seconds, slices, ops)
			}
			if !w.fixedSlice && ops%w.opsMultiple != 0 {
				t.Errorf("%s at %vs: %d ops per slice is not a multiple of %d", w.name, seconds, ops, w.opsMultiple)
			}
		}
		if slices, ops := w.sized(refSeconds); slices != w.slices || ops != w.opsPerSlice {
			t.Errorf("%s at the reference length: %d x %d, want %d x %d", w.name, slices, ops, w.slices, w.opsPerSlice)
		}
	}
}

func TestServeMixIsTheSameWorkForEverySeed(t *testing.T) {
	s := &serveInstance{tenants: make([]string, serveTenants)}
	s.spec.Procs = 4
	count := func(seed int64) (perClient [serveClients]map[serveOp]int) {
		sl := &slice{ops: 4 * serveUnit * serveClients, rng: sliceSeed(seed, 0)}
		s.mix(sl)
		for c := range perClient {
			perClient[c] = make(map[serveOp]int)
		}
		for i, op := range s.ops {
			perClient[i%serveClients][serveOp{size: op.size, allreduce: op.allreduce}]++
		}
		return perClient
	}
	a, b := count(1), count(2)
	for c := 0; c < serveClients; c++ {
		for size := range serveSizes {
			steps, reduces := a[c][serveOp{size: size}], a[c][serveOp{size: size, allreduce: true}]
			if steps != 16 || reduces != 4 {
				t.Errorf("client %d size %d: %d steps, %d allreduces, want 16 and 4", c, size, steps, reduces)
			}
		}
		for k, n := range a[c] {
			if b[c][k] != n {
				t.Errorf("client %d: seeds disagree on %+v: %d vs %d", c, k, n, b[c][k])
			}
		}
	}
}

// benchmarkFile is the contract at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, declared %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name or unit", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestSimGoldenCoversTheGrid(t *testing.T) {
	var rows []simGolden
	if err := json.Unmarshal(simGoldenJSON, &rows); err != nil {
		t.Fatal(err)
	}
	have := make(map[simCell]bool)
	for _, g := range rows {
		have[g.simCell] = true
		if g.LatencyNS <= 0 {
			t.Errorf("%v: golden latency %d", g.simCell, g.LatencyNS)
		}
	}
	for _, c := range simGrid() {
		if !have[c] {
			t.Errorf("testdata/sim_golden.json lacks %v", c)
		}
	}
}

// TestQuickSmoke runs every workload end to end at about 1 % of its
// operation list, untraced and traced, and checks that each declared
// metric is printed exactly once per workload with a finite value and
// that no operation failed.
func TestQuickSmoke(t *testing.T) {
	for _, trace := range []int{0, 1} {
		trace := trace
		name := "end_to_end"
		if trace == 1 {
			name = "per_layer"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			o := &options{seed: 7, seconds: quickSeconds, trace: trace, refMBps: 5000}
			rep, err := runSet(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != len(workloads()) {
				t.Fatalf("%d results for %d workloads", len(rep.Results), len(workloads()))
			}
			tables := strings.Split(out.String(), "== ")[1:]
			for i, res := range rep.Results {
				if res.Failed != 0 || res.Attempted < 1 || !res.correct() {
					t.Errorf("%s: attempted %d, failed %d, correct %v", res.Workload, res.Attempted, res.Failed, res.correct())
				}
				for _, m := range defsFor(trace == 1) {
					v, ok := res.Metrics[m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: metric %s missing or not finite (%v)", res.Workload, m.Name, v)
					}
					if n := strings.Count(tables[i], "   "+m.Name+" "); n != 1 {
						t.Errorf("%s: metric %s printed %d times", res.Workload, m.Name, n)
					}
					if trace == 0 && v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, m.Name, v)
					}
				}
				if len(res.Metrics) != len(defsFor(trace == 1)) {
					t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(defsFor(trace == 1)))
				}
			}
			var line bytes.Buffer
			if err := rep.writeResultLine(&line, false); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{`"commit"`, `"go_version"`, `"nproc"`, `"gomaxprocs"`, `"seed"`, `"CALIB_REF_MBPS"`, `"host.calib_MBps"`, `"loopback"`} {
				if !strings.Contains(line.String(), key) {
					t.Errorf("result line lacks the fingerprint field %s", key)
				}
			}
		})
	}
}

func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	w := &workload{name: "too-wide", clients: 1 << 20}
	if _, err := spawn(&options{seconds: quickSeconds}, w); err == nil || !strings.Contains(err.Error(), "client goroutines") {
		t.Fatalf("spawn = %v, want a refusal", err)
	}
}
