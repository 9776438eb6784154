package main

import (
	"bytes"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"encag"
	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/metrics"
	"encag/internal/sched"
	"encag/internal/seal"
	"encag/internal/tune"
	"encag/internal/wire"
)

// counterSet is the part of a session's cumulative counters the layer
// table is built from. Instances report it summed over every session
// they have opened, so a difference of two readings covers a section of
// the run whatever sessions it used.
type counterSet struct {
	frames, bytes, wireBytes          int64
	sealed, opened, saturated         int64
	pipeSegments, pipeInlineOpens     int64
	resends, reconnects, recvTimeouts int64
	windowWaits                       int64
	auto                              map[string]int64
}

func (c *counterSet) addSession(s encag.MetricsSnapshot) {
	c.frames += s.FramesSent
	c.bytes += s.BytesSent
	c.wireBytes += s.WireBytes
	c.sealed += s.SegmentsSealed
	c.opened += s.SegmentsOpened
	c.pipeSegments += s.PipelineSegmentsSent
	c.pipeInlineOpens += s.PipelineInlineOpens
	c.resends += s.Resends
	c.reconnects += s.Reconnects
	c.recvTimeouts += s.RecvTimeouts
	c.windowWaits += s.WindowWaits
	for alg, n := range s.AutoSelected {
		if c.auto == nil {
			c.auto = make(map[string]int64)
		}
		c.auto[alg] += n
	}
}

func (c counterSet) minus(o counterSet) counterSet {
	d := counterSet{
		frames: c.frames - o.frames, bytes: c.bytes - o.bytes, wireBytes: c.wireBytes - o.wireBytes,
		sealed: c.sealed - o.sealed, opened: c.opened - o.opened, saturated: c.saturated - o.saturated,
		pipeSegments: c.pipeSegments - o.pipeSegments, pipeInlineOpens: c.pipeInlineOpens - o.pipeInlineOpens,
		resends: c.resends - o.resends, reconnects: c.reconnects - o.reconnects,
		recvTimeouts: c.recvTimeouts - o.recvTimeouts, windowWaits: c.windowWaits - o.windowWaits,
		auto: make(map[string]int64),
	}
	for alg, n := range c.auto {
		if v := n - o.auto[alg]; v > 0 {
			d.auto[alg] = v
		}
	}
	return d
}

// layerAcc gathers, on the traced pass, what the layer table needs
// from each operation as it completes.
type layerAcc struct {
	mu sync.Mutex

	openMS    float64 // standing the system up, before its first operation
	firstOpMS float64 // the first completed, verified operation

	ops        int       // traced all-gathers that completed
	facadeUS   []float64 // caller latency of Session.Run minus RunResult.Elapsed
	elapsedUS  float64   // sum of RunResult.Elapsed
	critUS     [6]float64
	critCover  float64 // part of Elapsed the critical rank's intervals cover
	interMsgs  int64
	intraMsgs  int64
	six        encag.Metrics // the last operation's six metrics
	mismatches int           // operations whose six metrics differ from bounds.Predict

	stepOverUS  []float64           // serve: Manager.Do latency minus RunResult.Elapsed
	stepUS      map[int64][]float64 // serve: Step latency by block size
	allreduceUS []float64           // serve: Allreduce latency
	queueMax    int64               // serve: deepest admission queue seen
	inflight    []float64           // overlap: operations in flight at each Start
	retainedKB  []float64           // overlap: live heap an epoch's session still holds, per op
	closed      counterSet          // counters of sessions already closed

	simUS       map[bool][]float64 // sim: wall µs per simulation, keyed by size >= 256 KiB; small is <= 1 KiB
	simAllUS    []float64
	simMismatch int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{stepUS: make(map[int64][]float64), simUS: make(map[bool][]float64)}
}

// observeRun records one completed all-gather: its caller-observed
// latency, the runtime's own figures and the critical rank's profile.
func (a *layerAcc) observeRun(callerUS float64, res *encag.RunResult, crit []cluster.TraceEvent, spec encag.Spec, size int64) {
	var critUS [6]float64
	kids := make([]span, 0, len(crit))
	for _, ev := range crit {
		kids = append(kids, span{Start: time.Duration(ev.Start * 1e9), End: time.Duration(ev.End * 1e9)})
		if int(ev.Kind) < len(critUS) {
			critUS[ev.Kind] += (ev.End - ev.Start) * 1e6
		}
	}
	cover := covered(0, res.Elapsed, kids)
	want, perr := encag.Predict(res.Algorithm, spec.Procs, spec.Nodes, size)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	a.facadeUS = append(a.facadeUS, callerUS-float64(res.Elapsed.Nanoseconds())/1e3)
	a.elapsedUS += float64(res.Elapsed.Nanoseconds()) / 1e3
	a.critCover += float64(cover.Nanoseconds()) / 1e3
	for kind, us := range critUS {
		a.critUS[kind] += us
	}
	a.interMsgs += int64(res.InterMessages)
	a.intraMsgs += int64(res.IntraMessages)
	a.six = res.Metrics
	if perr != nil || !sixEqual(res.Metrics, want, spec.Procs) {
		a.mismatches++
	}
}

// sixEqual compares an operation's six metrics with the paper's closed
// forms the way the repository's own tests do: the five round and
// crypto-volume metrics exactly, and the communication volume with room
// for the ciphertext framing the closed form leaves out (a nonce and a
// tag per sealed segment, and the segment table of a split ciphertext:
// under one per cent of the payload, or 28 bytes per rank and round).
func sixEqual(got encag.Metrics, want encag.BoundSet, procs int) bool {
	slack := want.Sc / 100
	if floor := int64(28 * procs * bits.Len(uint(procs))); slack < floor {
		slack = floor
	}
	return got.Rc == want.Rc && got.Re == want.Re && got.Se == want.Se &&
		got.Rd == want.Rd && got.Sd == want.Sd &&
		got.Sc >= want.Sc && got.Sc <= want.Sc+slack
}

// afterEpoch measures what a tcp-overlap epoch's session still holds
// just before it closes: the heap that survives a collection while
// every handle the session started is retained, per operation.
func (a *layerAcc) afterEpoch(ops int, heapBefore uint64) {
	if heap := liveHeap(); heap > heapBefore && ops > 0 {
		a.retainedKB = append(a.retainedKB, float64(heap-heapBefore)/1024/float64(ops))
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// perIter times fn over enough iterations to fill budget and returns
// nanoseconds per call.
func perIter(budget time.Duration, fn func()) float64 {
	fn() // warm
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for k := 0; k < 16; k++ {
			fn()
		}
		n += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// microBudget is how long each layer micro-timing runs. It is set once,
// before the traced pass, from the run's length, so a -quick run stays
// quick.
var microBudget = 60 * time.Millisecond

func setMicroBudget(seconds float64) {
	microBudget = time.Duration(seconds * 4 * float64(time.Millisecond))
	if microBudget > 60*time.Millisecond {
		microBudget = 60 * time.Millisecond
	}
	if microBudget < time.Millisecond {
		microBudget = time.Millisecond
	}
}

// wireMicro times the frame codec alone, through a bytes.Buffer, on a
// message shaped like the workload's: one block of the workload's size
// for whole-message frames, one sealed segment for EAGP sub-frames.
func wireMicro(size int64, out map[string]float64) {
	payload := make([]byte, size)
	msg := block.NewPlain(0, payload)
	var buf bytes.Buffer
	out["wire.write_frame_ns"] = perIter(microBudget, func() {
		buf.Reset()
		_ = wire.WriteFrame(&buf, 0, 1, 1, msg) // a bytes.Buffer write cannot fail
	})
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	out["wire.read_frame_ns"] = perIter(microBudget, func() {
		rd.Reset(frame)
		_, _, _, _, _ = wire.ReadFrame(rd) // the frame was just produced by WriteFrame
	})

	segLen := int(size)
	if segLen > 128<<10 {
		segLen = 128 << 10
	}
	seg := wire.SegFrame{Stream: 1, Index: 1, Count: 8, Payload: make([]byte, seal.SealedLen(segLen))}
	fw := wire.NewFrameWriter()
	out["wire.write_seg_ns"] = perIter(microBudget, func() {
		buf.Reset()
		_ = fw.WriteSeg(&buf, 0, 1, 1, seg)
	})
	segFrame := append([]byte(nil), buf.Bytes()...)
	sink := make([]byte, len(seg.Payload))
	out["wire.read_seg_ns"] = perIter(microBudget, func() {
		rd.Reset(segFrame)
		if f, err := wire.ReadFrameStart(rd); err == nil {
			_, _ = rd.Read(sink[:f.Seg.PayloadLen])
		}
	})
}

// sealMicro times the crypto layer alone at the workload's block size.
func sealMicro(size int64, calibMBps float64, out map[string]float64) error {
	slr, err := seal.NewRandomSealer()
	if err != nil {
		return err
	}
	aad := []byte("benchmark")
	plain := [][]byte{make([]byte, size)}
	mb := float64(size) / 1e6
	var blob []byte
	ns := perIter(microBudget, func() { blob, _, _ = slr.SealSegmented(plain, aad) })
	out["seal.seal_MBps"] = mb / (ns / 1e9)
	out["seal.vs_stdlib_ratio"] = out["seal.seal_MBps"] / calibMBps
	ns = perIter(microBudget, func() { _, _, _ = slr.OpenSegmented(blob, aad) })
	out["seal.open_MBps"] = mb / (ns / 1e9)
	if st := slr.NewSealStream(plain, aad); st != nil {
		ns = perIter(microBudget, func() {
			st := slr.NewSealStream(plain, aad)
			for i := 0; i < st.K(); i++ {
				_, _ = st.Segment(i)
			}
		})
		out["seal.stream_seal_MBps"] = mb / (ns / 1e9)
	}
	small := make([]byte, 1<<10)
	out["seal.small_seal_ns"] = perIter(microBudget, func() { _, _ = slr.Seal(small, aad) })
	pool := seal.NewPool(0)
	defer pool.Close()
	tasks := pool.Size() + 1
	out["seal.pool_dispatch_ns"] = perIter(microBudget, func() { pool.Run(tasks, func(int) {}) })
	return nil
}

// fixedMicro times the layers whose cost does not depend on the
// workload's message shape.
func fixedMicro(out map[string]float64) {
	s := sched.New[int](4)
	out["sched.start_ns"] = perIter(microBudget/2, func() {
		if h, err := s.Start(ctx, func() (int, error) { return 0, nil }); err == nil {
			_, _ = h.Wait()
		}
	})
	s.Close()

	tn := tune.NewTuner(nil, nil)
	key := tune.Key{Bucket: tune.BucketOf(16 << 10), P: 4, N: 2, Engine: "chan"}
	out["tune.pick_ns"] = perIter(microBudget/2, func() { _ = tn.Pick(key, 16<<10) })

	reg := metrics.NewRegistry()
	h := reg.Histogram("bench_observe", "benchmark probe")
	v := int64(1)
	out["metrics.observe_ns"] = perIter(microBudget/2, func() { v += 977; h.Observe(v) })
}

// critKinds maps the runtime's trace kinds to the cluster.* metric names.
var critKinds = map[cluster.TraceKind]string{
	cluster.TraceSend:    "cluster.send_us",
	cluster.TraceRecv:    "cluster.recvwait_us",
	cluster.TraceEncrypt: "cluster.encrypt_us",
	cluster.TraceDecrypt: "cluster.decrypt_us",
	cluster.TraceCopy:    "cluster.copy_us",
	cluster.TraceBarrier: "cluster.barrier_us",
}

// fill writes the accumulator's share of the layer table. ops is every
// operation of the traced section (all-gathers and all-reduces), the
// denominator of the per-operation counts; plainBytes is the plaintext
// one all-gather must move between ranks.
func (a *layerAcc) fill(out map[string]float64, c counterSet, ops int, plainBytes float64) {
	per := func(n int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	if a.ops > 0 {
		n := float64(a.ops)
		out["encag.facade_us_per_op"] = median(a.facadeUS)
		for kind, name := range critKinds {
			out[name] = a.critUS[kind] / n
		}
		out["cluster.self_us"] = (a.elapsedUS - a.critCover) / n
		out["cluster.inter_msgs_per_op"] = float64(a.interMsgs) / n
		out["cluster.intra_msgs_per_op"] = float64(a.intraMsgs) / n
		out["encrypted.rc"], out["encrypted.sc_bytes"] = float64(a.six.Rc), float64(a.six.Sc)
		out["encrypted.re"], out["encrypted.se_bytes"] = float64(a.six.Re), float64(a.six.Se)
		out["encrypted.rd"], out["encrypted.sd_bytes"] = float64(a.six.Rd), float64(a.six.Sd)
	}
	out["encrypted.bounds_mismatch"] = float64(a.mismatches)
	out["cluster.pipeline_segments_per_op"] = per(c.pipeSegments)
	out["cluster.pipeline_inline_opens_per_op"] = per(c.pipeInlineOpens)
	out["cluster.resends"] = float64(c.resends)
	out["cluster.reconnects"] = float64(c.reconnects)
	out["cluster.recv_timeouts"] = float64(c.recvTimeouts)
	out["wire.frames_per_op"] = per(c.frames)
	out["wire.bytes_per_op"] = per(c.bytes)
	out["wire.internode_bytes_per_op"] = per(c.wireBytes)
	if plainBytes > 0 {
		out["wire.overhead_ratio"] = per(c.bytes) / plainBytes
	}
	out["seal.segments_sealed_per_op"] = per(c.sealed)
	out["seal.segments_opened_per_op"] = per(c.opened)
	out["seal.pool_saturated_per_kop"] = per(c.saturated) * 1e3
	out["sched.window_waits_per_kop"] = per(c.windowWaits) * 1e3
	if len(a.inflight) > 0 {
		out["sched.inflight_mean"] = mean(a.inflight)
	}
	if len(a.retainedKB) > 0 {
		out["sched.retained_KB_per_op"] = median(a.retainedKB)
	}
	var picks, top int64
	for _, n := range c.auto {
		picks += n
		if n > top {
			top = n
		}
	}
	out["tune.auto_distinct_algs"] = float64(len(c.auto))
	if picks > 0 {
		out["tune.auto_top_share"] = float64(top) / float64(picks)
	}
	if len(a.stepOverUS) > 0 {
		out["serve.step_overhead_us"] = median(a.stepOverUS)
		out["serve.step_p50_us.1k"] = median(a.stepUS[serveSizes[0]])
		out["serve.step_p50_us.16k"] = median(a.stepUS[serveSizes[1]])
		out["serve.step_p50_us.256k"] = median(a.stepUS[serveSizes[2]])
		out["serve.allreduce_p50_us"] = median(a.allreduceUS)
		out["serve.queue_depth_max"] = float64(a.queueMax)
	}
	if len(a.simAllUS) > 0 {
		out["sim.wall_ms_per_sim"] = mean(a.simAllUS) / 1e3
		out["sim.wall_ms_per_sim.small"] = mean(a.simUS[false]) / 1e3
		out["sim.wall_ms_per_sim.large"] = mean(a.simUS[true]) / 1e3
	}
	out["sim.golden_mismatch"] = float64(a.simMismatch)
}
