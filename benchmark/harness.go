package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// calibEvery is how long a timed region runs between two host
// calibrations. The host's speed wanders on every timescale from a few
// milliseconds up, so a slice is normalised by calibrations taken all
// through it, not only at its edges: a disturbance that comes and goes
// inside a slice is then seen by the calibration too.
const calibEvery = 20 * time.Millisecond

// instance is one opened system under test. slice runs the operations
// of one slice, timing them through the slice's methods; anything it
// does outside sl.timed is set-up or checking and is not measured.
type instance interface {
	slice(sl *slice)
	close()
	// layers is what the traced pass gathered from each operation.
	layers() *layerAcc
	// counters reads the runtime's cumulative counters, summed over
	// every session the instance has used so far.
	counters() counterSet
	// probe times the calls that need the live system (snapshots,
	// tenant reopen) into the layer table.
	probe(out map[string]float64)
}

// slice is one equal share of a workload's operation list together
// with what was measured while it ran.
type slice struct {
	ops int
	// chunk is how many operations a multi-client slice runs between two
	// quiescent points (where every client has returned and the host is
	// calibrated); a single client calibrates by the clock instead.
	chunk int
	rng   *rand.Rand
	cal   *calibrator
	tr    *tracer // nil on the untraced pass

	lat        []float64 // caller-observed latency per operation, µs
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	failed     int
	calib      []float64 // host calibrations bracketing and inside the slice, MB/s
	rss        []float64 // resident set at the slice's quiescent points, MB
	mem        *residentProbe

	pausedWall time.Duration
	pausedCPU  time.Duration
	lastCalib  time.Time

	mu      sync.Mutex
	pending []func() bool // whole-result checks waiting for a quiescent point
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed measures fn: wall clock, process CPU and heap allocation. The
// memory statistics are read outside the clocks because reading them
// stops the world.
func (sl *slice) timed(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sl.lastCalib = time.Now()
	c0, t0 := cpuTime(), time.Now()
	fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	sl.wall += wall - sl.pausedWall
	sl.cpu += cpu - sl.pausedCPU
	sl.quiesce(false) // the clocks have stopped: what this pauses is not theirs to lose
	sl.pausedWall, sl.pausedCPU = 0, 0
	sl.sampleRSS()
	runtime.ReadMemStats(&m1)
	sl.mallocs += m1.Mallocs - m0.Mallocs
	sl.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

func (sl *slice) sampleRSS() {
	if sl.mem != nil && len(sl.rss) < cap(sl.rss) {
		sl.rss = append(sl.rss, sl.mem.residentMB())
	}
}

// later queues the byte-for-byte check of an operation's whole result.
// It runs at the next quiescent point, with the slice's clocks stopped,
// and a mismatch counts the operation as failed.
func (sl *slice) later(check func() bool) {
	sl.mu.Lock()
	sl.pending = append(sl.pending, check)
	sl.mu.Unlock()
}

// quiesce is called inside a timed region while no operation is
// running. It runs the queued checks and, if asked, a short host
// calibration, and keeps the cost of both off the slice's clocks.
func (sl *slice) quiesce(calibrate bool) {
	if len(sl.pending) == 0 && !calibrate {
		return
	}
	c0, t0 := cpuTime(), time.Now()
	for i, check := range sl.pending {
		if !check() {
			sl.failed++
		}
		sl.pending[i] = nil
	}
	sl.pending = sl.pending[:0]
	if calibrate {
		sl.calib = append(sl.calib, sl.cal.short())
		sl.sampleRSS()
	}
	now := time.Now()
	if calibrate {
		sl.lastCalib = now
	}
	sl.pausedWall += now.Sub(t0)
	sl.pausedCPU += cpuTime() - c0
}

// each runs operations 0..ops-1 inside one timed region, operation i on
// client i%clients, each client a closed loop: it issues its next
// operation only when the previous one returned. do reports whether the
// operation succeeded and passed its check.
func (sl *slice) each(clients int, do func(client, i int) bool) {
	sl.lat = sl.lat[:sl.ops]
	// span runs operations [from, to) of one client and counts failures.
	span := func(client, from, to int) int {
		failed := 0
		for i := from + (client-from%clients+clients)%clients; i < to; i += clients {
			t0 := time.Now()
			if clients == 1 && (len(sl.pending) > 0 || t0.Sub(sl.lastCalib) >= calibEvery) {
				sl.quiesce(t0.Sub(sl.lastCalib) >= calibEvery)
				t0 = time.Now()
			}
			ok := do(client, i)
			sl.lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			if !ok {
				failed++
			}
		}
		return failed
	}
	sl.timed(func() {
		if clients == 1 {
			sl.failed += span(0, 0, sl.ops)
			return
		}
		chunk := sl.chunk
		if chunk <= 0 {
			chunk = sl.ops
		}
		fails := make([]int, clients)
		for from := 0; from < sl.ops; from += chunk {
			to := from + chunk
			if to > sl.ops {
				to = sl.ops
			}
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					fails[c] += span(c, from, to)
				}(c)
			}
			wg.Wait()
			if to < sl.ops {
				sl.quiesce(true)
			}
		}
		for _, f := range fails {
			sl.failed += f
		}
	})
}

// harnessCost measures what the slice machinery itself allocates per
// operation by running it with an empty operation, so that cost can be
// subtracted from the workload's allocation counts.
func harnessCost(cal *calibrator, clients, ops, chunk int) (allocsPerOp, bytesPerOp float64) {
	sl := &slice{ops: ops, chunk: chunk, cal: cal, lat: make([]float64, 0, ops)}
	sl.each(clients, func(int, int) bool { return true })
	return float64(sl.mallocs) / float64(ops), float64(sl.allocBytes) / float64(ops)
}
