// Command benchmark measures the encrypted all-gather stack end to end
// and layer by layer: five workloads, seven end-to-end metrics each,
// and a traced pass that fills the per-layer table. README.md beside it
// is the manual; BENCHMARK.json at the repository root is the contract.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// quickSeconds sizes every operation list to about 1 % of the reference.
const quickSeconds = 0.01 * refSeconds

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	jsonOnly bool
	refMBps  float64
	spans    string
	child    bool
	golden   bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated operation lists")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed length each operation list is sized for on the reference host")
	fs.IntVar(&o.trace, "trace", 0, "1: run the traced pass and print the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "smoke run: about 1% of each operation list")
	fs.BoolVar(&o.aa, "aa", false, "A/A self-check: run the full set twice, interleaved, and compare against the bounds")
	fs.BoolVar(&o.jsonOnly, "json", false, "print only the JSON result line")
	fs.Float64Var(&o.refMBps, "calib-ref-mbps", 5000, "CALIB_REF_MBPS: calibration-kernel rate of the reference host")
	fs.StringVar(&o.spans, "spans", "", "traced pass: also write the recorded spans to this file as JSON lines")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.golden, "print-golden", false, "print a fresh testdata/sim_golden.json and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *quick {
		o.seconds = quickSeconds
	}
	if o.seconds <= 0 || o.seconds > 600 {
		return nil, fmt.Errorf("-seconds %v out of range (0, 600]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.refMBps <= 0 {
		return nil, fmt.Errorf("-calib-ref-mbps %v: want a positive rate", o.refMBps)
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o *options, stdout io.Writer) error {
	switch {
	case o.golden:
		data, err := printGolden()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", data)
		return err
	case o.child:
		return runChild(o, stdout)
	case o.aa:
		return runAA(o, stdout)
	}
	rep, err := runSet(o, stdout)
	if err != nil {
		return err
	}
	return rep.writeResultLine(stdout, o.workload != "")
}

// runChild is the body of a workload's own process.
func runChild(o *options, stdout io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("-child needs -workload")
	}
	cfg := config{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, refMBps: o.refMBps, spans: o.spans}
	serveSeed = o.seed
	var res *runResult
	var err error
	if cfg.trace {
		res, err = traced(w, cfg)
	} else {
		res, err = measure(w, cfg)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// fingerprint stamps every output with what the numbers depend on.
type fingerprint struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	CalibRefMBps float64 `json:"CALIB_REF_MBPS"`
	CalibMBps    float64 `json:"host.calib_MBps"`
	Loopback     bool    `json:"loopback"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workerProcs is the GOMAXPROCS every workload process runs with.
func workerProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// report is one pass over the requested workloads.
type report struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Results     []*runResult `json:"results"`
	trace       bool
}

// spawn runs one workload in a fresh child process and returns its
// result; a traced result gains the child's resident high-water mark.
func spawn(o *options, w *workload) (*runResult, error) {
	if w.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s drives %d client goroutines but the host has %d CPUs", w.name, w.clients, runtime.NumCPU())
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-calib-ref-mbps", strconv.FormatFloat(o.refMBps, 'g', -1, 64)}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(exe, args...)
	for _, kv := range os.Environ() {
		// A tuning table or a GC setting inherited from the caller would
		// change what the workloads do.
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "ENCAG_TUNING_TABLE=") &&
			!strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(workerProcs()))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("workload %s: unreadable result: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && res.Trace {
		res.Metrics["host.vm_hwm_MB"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// runSet runs the requested workloads once, each in its own process,
// printing each one's table as it completes.
func runSet(o *options, stdout io.Writer) (*report, error) {
	rep := &report{trace: o.trace == 1, Fingerprint: fingerprint{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: workerProcs(),
		Seed: o.seed, Seconds: o.seconds, CalibRefMBps: o.refMBps,
	}}
	var calib []float64
	for _, w := range workloads() {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		res, err := spawn(o, w)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
		rep.Fingerprint.Loopback = rep.Fingerprint.Loopback || w.loopback
		calib = append(calib, res.CalibMBps)
		rep.Fingerprint.CalibMBps = mean(calib)
		if !o.jsonOnly {
			rep.printTable(stdout, w, res)
		}
	}
	return rep, nil
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (rep *report) printTable(out io.Writer, w *workload, res *runResult) {
	fp := rep.Fingerprint
	fmt.Fprintf(out, "== %s  commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g CALIB_REF_MBPS=%g host.calib_MBps=%.0f loopback=%v\n",
		w.name, fp.Commit, fp.GoVersion, fp.NProc, res.GoMaxProcs, fp.Seed, fp.Seconds, fp.CalibRefMBps, res.CalibMBps, w.loopback)
	fmt.Fprintf(out, "   %s\n", w.why)
	truncated := ""
	if res.Truncated {
		truncated = " (stopped early: host far slower than the reference)"
	}
	fmt.Fprintf(out, "   %d slices x %d ops, %d clients%s\n", res.Slices, res.OpsPerSlice, w.clients, truncated)
	fmt.Fprintf(out, "   %-36s %16s %-6s %-7s %6s %14s %14s %5s %14s\n", "metric", "value", "unit", "better", "bound", "q1", "q3", "n", "raw")
	for _, m := range defsFor(res.Trace) {
		q1, q3, n, raw := "-", "-", "-", "-"
		if v, ok := res.Raw[m.Name]; ok {
			raw = fmt.Sprintf("%.6g", v)
		}
		if sp, ok := res.Spread[m.Name]; ok {
			q1, q3, n = fmt.Sprintf("%.6g", sp.Q1), fmt.Sprintf("%.6g", sp.Q3), strconv.Itoa(sp.Samples)
		}
		fmt.Fprintf(out, "   %-36s %16.6g %-6s %-7s %6s %14s %14s %5s %14s\n", m.Name, res.Metrics[m.Name], m.Unit, m.Better, m.boundText(), q1, q3, n, raw)
	}
	if len(res.TopLayers) > 0 {
		fmt.Fprintf(out, "   layers by self time:")
		for _, l := range res.TopLayers {
			fmt.Fprintf(out, "  %s %.1f ms (%.0f%%)", l.Layer, l.SelfMS, l.Share*100)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "   ops_attempted=%d ops_failed=%d\n\n", res.Attempted, res.Failed)
}

// correct reports whether every output the run checked was right.
func (res *runResult) correct() bool {
	return res.Failed == 0 && res.Metrics["encrypted.bounds_mismatch"] == 0 && res.Metrics["sim.golden_mismatch"] == 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricValues(res *runResult) map[string]metricValue {
	out := make(map[string]metricValue)
	for _, m := range defsFor(res.Trace) {
		out[m.Name] = metricValue{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	return out
}

// writeResultLine prints the machine-readable last line. For a single
// workload it is exactly the object the benchmark contract names; for
// the whole set it carries one such object per workload.
func (rep *report) writeResultLine(out io.Writer, single bool) error {
	type line struct {
		Correct     bool                              `json:"correct"`
		Attempted   int64                             `json:"attempted"`
		Failed      int64                             `json:"failed"`
		Metrics     map[string]metricValue            `json:"metrics,omitempty"`
		Workloads   map[string]map[string]metricValue `json:"workloads,omitempty"`
		Fingerprint *fingerprint                      `json:"fingerprint,omitempty"`
	}
	l := line{Correct: true}
	for _, res := range rep.Results {
		l.Correct = l.Correct && res.correct()
		l.Attempted += res.Attempted
		l.Failed += res.Failed
		if single {
			l.Metrics = metricValues(res)
			continue
		}
		if l.Workloads == nil {
			l.Workloads = make(map[string]map[string]metricValue)
		}
		l.Workloads[res.Workload] = metricValues(res)
		l.Fingerprint = &rep.Fingerprint
	}
	for _, res := range rep.Results {
		for name, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is not finite", res.Workload, name)
			}
		}
	}
	return json.NewEncoder(out).Encode(l)
}

// runAA is the A/A self-check: the full set twice, workloads
// interleaved (w1..w5, w1..w5), each end-to-end metric's relative
// difference printed next to its bound.
func runAA(o *options, stdout io.Writer) error {
	first, err := runSet(o, io.Discard)
	if err != nil {
		return err
	}
	second, err := runSet(o, io.Discard)
	if err != nil {
		return err
	}
	fp := second.Fingerprint
	fmt.Fprintf(stdout, "A/A  commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g CALIB_REF_MBPS=%g host.calib_MBps=%.0f/%.0f loopback=%v\n",
		fp.Commit, fp.GoVersion, fp.NProc, fp.GoMaxProcs, fp.Seed, fp.Seconds, fp.CalibRefMBps,
		first.Fingerprint.CalibMBps, fp.CalibMBps, fp.Loopback)
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "first", "second", "rel.diff", "bound", "")
	exceeded := 0
	var failed int64
	for i, a := range first.Results {
		b := second.Results[i]
		failed += a.Failed + b.Failed
		for _, m := range defsFor(first.trace) {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			diff := 0.0
			if va != 0 {
				diff = math.Abs(vb-va) / math.Abs(va)
			}
			verdict := ""
			if m.Bound > 0 && diff > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %8.2f%% %6s  %s\n", a.Workload, m.Name, va, vb, diff*100, m.boundText(), verdict)
		}
		fmt.Fprintf(stdout, "%-16s ops_attempted=%d/%d ops_failed=%d/%d\n", a.Workload, a.Attempted, b.Attempted, a.Failed, b.Failed)
	}
	if exceeded > 0 || failed > 0 {
		return fmt.Errorf("A/A self-check failed: %d metrics beyond their bound, %d operations failed", exceeded, failed)
	}
	fmt.Fprintln(stdout, "A/A self-check passed: every metric within its bound, no operation failed")
	return nil
}
