package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// setups is how many times a run stands the system up from nothing;
// setup_s is their median.
const setups = 15

// config is what one workload run is asked to do.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	refMBps float64
	spans   string // traced pass: also write the spans to this file
}

// spread is a metric's per-slice distribution.
type spread struct {
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

// runResult is what one workload run reports: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
type runResult struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Attempted   int64              `json:"ops_attempted"`
	Failed      int64              `json:"ops_failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Spread      map[string]spread  `json:"spread,omitempty"`
	Raw         map[string]float64 `json:"raw,omitempty"` // the timing metrics before host normalisation
	TopLayers   []layerShare       `json:"top_layers,omitempty"`
	Slices      int                `json:"slices"`
	OpsPerSlice int                `json:"ops_per_slice"`
	CalibMBps   float64            `json:"calib_MBps"`
	Truncated   bool               `json:"truncated,omitempty"`
	GoMaxProcs  int                `json:"gomaxprocs"`
}

// sliceSeed derives a slice's generator from the run's seed.
func sliceSeed(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(index)))
}

// runner drives one instance through slices and keeps what they measured.
type runner struct {
	w    *workload
	cfg  config
	cal  *calibrator
	inst instance
	ops  int
	lat  []float64 // the slices' shared, preallocated latency buffer
	cals []float64 // and their calibration buffer
	mem  *residentProbe
	rss  []float64 // resident set at every quiescent point of the timed slices, MB
	next int       // index of the next slice

	attempted, failed int64
}

// run executes one slice, bracketed by host calibrations.
func (r *runner) run(tr *tracer) *slice {
	sl := &slice{ops: r.ops, chunk: r.w.chunk, rng: sliceSeed(r.cfg.seed, r.next), cal: r.cal, tr: tr,
		lat: r.lat[:0], calib: r.cals[:0], mem: r.mem, rss: r.rss[len(r.rss):]}
	r.next++
	sl.calib = append(sl.calib, r.cal.run())
	r.inst.slice(sl)
	sl.calib = append(sl.calib, r.cal.run())
	r.rss = r.rss[:len(r.rss)+len(sl.rss)] // the slice appended in place
	r.attempted += int64(sl.ops)
	r.failed += int64(sl.failed)
	return sl
}

// warmUp runs a tenth of the operation list untimed, so caches, pools
// and the heap reach their steady state before the first timed slice.
func (r *runner) warmUp(slices int) {
	ops := r.ops
	n := (slices + 9) / 10
	if r.w.fixedSlice {
		r.ops, n = (ops+9)/10, 1
	}
	for i := 0; i < n; i++ {
		r.next = -1 - i
		r.run(nil)
	}
	r.ops, r.next = ops, 0
}

// sliceStats are one slice's figures, as measured (raw) and
// host-normalised.
type sliceStats struct {
	factor                         float64 // the slice's host factor
	rawP50US, rawOpsPerS, rawCPUMS float64
	p50US, opsPerS, cpuMS          float64
}

func (r *runner) stats(sl *slice) sliceStats {
	f := hostFactor(mean(sl.calib), r.cfg.refMBps)
	n := float64(sl.ops)
	st := sliceStats{factor: f, rawP50US: median(sl.lat), rawOpsPerS: n / sl.wall.Seconds(), rawCPUMS: sl.cpu.Seconds() * 1e3 / n}
	st.p50US, st.opsPerS, st.cpuMS = st.rawP50US*f, st.rawOpsPerS/f, st.rawCPUMS*f
	return st
}

func newRunner(w *workload, cfg config) (*runner, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	mem, err := newResidentProbe()
	if err != nil {
		return nil, err
	}
	_, ops := w.sized(cfg.seconds)
	return &runner{w: w, cfg: cfg, cal: cal, mem: mem, ops: ops,
		lat: make([]float64, 0, ops), cals: make([]float64, 0, 4096), rss: make([]float64, 0, 1<<15)}, nil
}

// measure is the untraced run: set-up time, then the timed slices.
func measure(w *workload, cfg config) (*runResult, error) {
	r, err := newRunner(w, cfg)
	if err != nil {
		return nil, err
	}
	slices, _ := w.sized(cfg.seconds)
	res := &runResult{Workload: w.name, Slices: slices, OpsPerSlice: r.ops, GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics: make(map[string]float64), Spread: make(map[string]spread), Raw: make(map[string]float64)}

	// Set-up, from nothing to the first verified operation, several times
	// over; the last instance stays open for the timed slices.
	var setupS, rawSetupS []float64
	for i := 0; i < setups; i++ {
		if r.inst != nil {
			r.inst.close()
		}
		c0, c1, t0 := r.cal.run(), r.cal.run(), time.Now()
		inst, err := w.open()
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.name, i, err)
		}
		r.inst = inst
		rawSetupS = append(rawSetupS, d.Seconds())
		// A set-up lasts a few milliseconds, so it is bracketed by two full
		// calibrations on either side.
		calib := (c0 + c1 + r.cal.run() + r.cal.run()) / 4
		setupS = append(setupS, d.Seconds()*hostFactor(calib, cfg.refMBps))
	}
	defer r.inst.close()
	r.attempted += setups

	r.warmUp(slices)
	r.rss = r.rss[:0]
	harnessAllocs, harnessBytes := harnessCost(r.cal, w.clients, r.ops, w.chunk)

	var p50, rate, cpu, rawP50, rawRate, rawCPU []float64
	var cells [][]float64 // fixed-slice workloads: each operation's latency, pass by pass
	var mallocs, allocBytes uint64
	ops := 0
	limit := time.Duration(1.25 * cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < slices; i++ {
		sl := r.run(nil)
		if len(sl.lat) == 0 {
			continue // the slice could not even start; its operations are counted as failed
		}
		st := r.stats(sl)
		p50, rate, cpu = append(p50, st.p50US), append(rate, st.opsPerS), append(cpu, st.cpuMS)
		rawP50, rawRate, rawCPU = append(rawP50, st.rawP50US), append(rawRate, st.rawOpsPerS), append(rawCPU, st.rawCPUMS)
		if w.fixedSlice && len(sl.lat) == w.opsPerSlice {
			if cells == nil {
				cells = make([][]float64, len(sl.lat))
			}
			for c, us := range sl.lat {
				cells[c] = append(cells[c], us*st.factor)
			}
		}
		mallocs, allocBytes, ops = mallocs+sl.mallocs, allocBytes+sl.allocBytes, ops+sl.ops
		if time.Since(start) > limit && i+1 < slices {
			// A host far slower than the reference: stop at a slice edge so
			// the run still ends in time. Every metric is a per-slice median
			// or a per-operation mean, so fewer slices bias none of them.
			res.Truncated, res.Slices = true, i+1
			break
		}
	}
	if len(rate) == 0 {
		return nil, fmt.Errorf("%s: no slice completed", w.name)
	}
	put := func(name string, xs []float64) {
		q1, med, q3 := quartiles(xs)
		res.Metrics[name] = med
		res.Spread[name] = spread{Q1: q1, Q3: q3, Samples: len(xs)}
	}
	put("setup_s", setupS)
	res.Raw["setup_s"], res.Raw["op_p50_us"] = median(rawSetupS), median(rawP50)
	res.Raw["ops_per_s"], res.Raw["cpu_ms_per_op"] = median(rawRate), median(rawCPU)
	put("op_p50_us", p50)
	if cells != nil {
		// The pass's operations differ fortyfold and are few, so its median
		// hangs on which two of them straddle the middle. Follow each
		// operation across the passes instead, and report the mean of the
		// middle half of the operations.
		perOp := make([]float64, len(cells))
		for i, c := range cells {
			perOp[i] = median(c)
		}
		res.Metrics["op_p50_us"] = midmean(perOp)
		q1, _, q3 := quartiles(perOp)
		res.Spread["op_p50_us"] = spread{Q1: q1, Q3: q3, Samples: len(perOp)}
	}
	put("ops_per_s", rate)
	put("cpu_ms_per_op", cpu)
	// The process's high-water mark (VmHWM) is bimodal on the workloads
	// that allocate megabyte objects: whether the allocator had to map one
	// more stretch of heap for a few milliseconds differs from run to run
	// by a fifth of the total. The resident set is sampled at every
	// quiescent point instead and its ninth decile reported: the level
	// the process stays at, not its one highest instant.
	res.Metrics["peak_rss_MB"] = quantileSorted(sorted(r.rss), 0.9)
	res.Metrics["allocs_per_op"] = perOpNet(float64(mallocs), harnessAllocs, ops)
	res.Metrics["alloc_KB_per_op"] = perOpNet(float64(allocBytes), harnessBytes, ops) / 1024
	res.CalibMBps = r.cal.mean()
	res.Attempted, res.Failed = r.attempted, r.failed
	return res, nil
}

// traced is the separate pass that yields the per-layer metrics: a few
// untraced slices for reference, the same number with spans and
// per-operation collectors on, then the layer micro-timings.
func traced(w *workload, cfg config) (*runResult, error) {
	r, err := newRunner(w, cfg)
	if err != nil {
		return nil, err
	}
	setMicroBudget(cfg.seconds)
	slices, _ := w.sized(cfg.seconds)
	n := (slices + 7) / 8 // slices per section
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	res := &runResult{Workload: w.name, Trace: true, Slices: 2 * n, OpsPerSlice: r.ops,
		GoMaxProcs: runtime.GOMAXPROCS(0), Metrics: out}

	if w.loopback {
		if out["host.pingpong_us"], err = pingPongUS(2000); err != nil {
			return nil, err
		}
	}
	if r.inst, err = w.open(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	acc := r.inst.layers()
	out["encag.open_session_ms"], out["encag.first_op_ms"] = acc.openMS, acc.firstOpMS
	r.attempted++
	r.warmUp(slices)

	// Reference section, untraced.
	var rate, raw, lat []float64
	var mallocs uint64
	for i := 0; i < n; i++ {
		sl := r.run(nil)
		if len(sl.lat) == 0 {
			continue
		}
		st := r.stats(sl)
		rate, raw = append(rate, st.opsPerS), append(raw, st.rawOpsPerS)
		lat = append(lat, sl.lat...)
		mallocs += sl.mallocs
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no reference slice completed", w.name)
	}
	out["host.raw_ops_per_s"] = median(raw)
	out["host.slice_iqr_ratio"] = iqrRatio(rate)
	_, out["encag.op_p99_us"] = tailPercentile(lat, 0.99)
	if w.name == "sim-paper" {
		out["sim.allocs_per_sim"] = float64(mallocs) / float64(len(lat))
	}

	// Traced section.
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := r.inst.counters()
	var tracedRate []float64
	ops := 0
	for i := 0; i < n; i++ {
		sl := r.run(tr)
		if len(sl.lat) == 0 {
			continue
		}
		tracedRate = append(tracedRate, r.stats(sl).opsPerS)
		ops += len(sl.lat)
	}
	after := r.inst.counters()
	runtime.ReadMemStats(&m1)
	if ops == 0 {
		return nil, fmt.Errorf("%s: no traced slice completed", w.name)
	}
	out["host.trace_overhead_ratio"] = median(rate) / median(tracedRate)
	out["gc.cycles_per_kop"] = float64(m1.NumGC-m0.NumGC) / float64(ops) * 1e3
	out["gc.pause_us_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / float64(ops)
	out["gc.heap_live_MB"] = float64(m1.HeapAlloc) / (1 << 20)

	acc.fill(out, after.minus(before), ops, w.plainBytes)
	res.TopLayers = rankLayers(selfTimes(tr.spans))
	r.inst.probe(out)
	t0 := time.Now()
	r.inst.close()
	out["encag.close_ms"] = msSince(t0)

	// The layers alone, at the workload's message shape.
	out["host.calib_MBps"] = r.cal.mean()
	fixedMicro(out)
	if w.blockSize > 0 {
		if w.loopback {
			wireMicro(w.blockSize, out)
		}
		if err := sealMicro(w.blockSize, out["host.calib_MBps"], out); err != nil {
			return nil, err
		}
	}
	res.CalibMBps = out["host.calib_MBps"]
	res.Attempted, res.Failed = r.attempted, r.failed
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
