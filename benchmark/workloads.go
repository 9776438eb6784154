package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"encag"
	"encag/internal/block"
	"encag/internal/seal"
	"encag/internal/serve"
)

// refSeconds is the timed length, on the 2-core reference host, that the
// slice sizes below were chosen for; -seconds scales every operation
// list by seconds/refSeconds.
const refSeconds = 20

// deepEvery is how often an operation's whole result (every rank's view
// of every block) is compared byte for byte, after the slice's clocks
// have stopped; every other operation compares one seeded block.
const deepEvery = 64

var ctx = context.Background()

// workload describes one benchmark workload: a closed loop of clients
// driving one opened instance through equal slices of a seeded
// operation list.
type workload struct {
	name    string
	why     string
	clients int
	// slices and opsPerSlice size the operation list for refSeconds of
	// timed work; opsPerSlice is kept a multiple of opsMultiple so every
	// slice (and every client within it) gets the same mix.
	slices      int
	opsPerSlice int
	opsMultiple int
	// fixedSlice marks a workload whose slice is one indivisible pass
	// (sim-paper's grid): -seconds scales its slice count instead.
	fixedSlice bool
	// chunk is how many operations a multi-client slice runs between
	// two points where all clients have returned and the host is
	// calibrated.
	chunk    int
	loopback bool // traffic crosses loopback TCP sockets
	// blockSize is the message shape the seal and wire micro-timings
	// use (0: the workload runs neither layer); plainBytes is the
	// plaintext one operation must move between ranks, p(p-1)m.
	blockSize  int64
	plainBytes float64
	// open stands the system up from nothing and returns it after its
	// first completed, verified operation: the work setup_s times.
	open func() (instance, error)
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "tcp-small",
			why:     "latency-bound: 8 ranks/4 nodes o-rd2 at 1 KiB over loopback TCP; frame codec, syscalls and goroutine hand-offs dominate, AES-GCM is idle",
			clients: 1, slices: 60, opsPerSlice: 300, opsMultiple: 1, loopback: true,
			blockSize: 1 << 10, plainBytes: 8 * 7 * (1 << 10),
			open: func() (instance, error) {
				return openTCP(&tcpShape{spec: encag.Spec{Procs: 8, Nodes: 4}, alg: encag.AlgORD2, size: 1 << 10})
			},
		},
		{
			name:    "tcp-large-pipe",
			why:     "bandwidth-bound: 4 ranks/2 nodes c-ring at 1 MiB with pipelining; seal/open, segment streaming and socket copies dominate; only user of SealStream/EAGP sub-frames",
			clients: 1, slices: 40, opsPerSlice: 16, opsMultiple: 1, loopback: true,
			blockSize: 1 << 20, plainBytes: 4 * 3 * (1 << 20),
			open: func() (instance, error) {
				return openTCP(&tcpShape{spec: encag.Spec{Procs: 4, Nodes: 2}, alg: encag.AlgCRing, size: 1 << 20,
					opts: []encag.Option{encag.WithPipelining(true)}})
			},
		},
		{
			name:    "tcp-overlap",
			why:     "concurrent: 4 ranks/2 nodes o-ring at 64 KiB, 4 nonblocking ops in flight per epoch session; op-id demux, fair sender queue, shared crypto pool, scheduler window and handle retention",
			clients: 1, slices: 40, opsPerSlice: 300, opsMultiple: 1, loopback: true,
			blockSize: 64 << 10, plainBytes: 4 * 3 * (64 << 10),
			open: func() (instance, error) {
				return openTCP(&tcpShape{spec: encag.Spec{Procs: 4, Nodes: 2}, alg: encag.AlgORing, size: 64 << 10, window: 4,
					opts: []encag.Option{encag.WithMaxInFlight(4)}})
			},
		},
		{
			name:    "serve-mix",
			why:     "multi-tenant chan engine: 8 resident tenants, 2 clients, 80% auto Step / 20% Allreduce over 1 KiB/16 KiB/256 KiB; admission, lease, auto resolution and the session facade, no TCP or wire",
			clients: serveClients, slices: 60, opsPerSlice: 510, opsMultiple: serveUnit * serveClients,
			blockSize: 256 << 10, chunk: serveUnit * serveClients,
			open: openServe,
		},
		{
			name:    "sim-paper",
			why:     "simulator at paper scale: 128 ranks/8 nodes Noleland, 8 paper algorithms x 5 sizes per pass; sim, netsim and algorithm step logic only, no seal, wire or sockets",
			clients: 1, slices: 4, opsPerSlice: len(simGrid()), opsMultiple: len(simGrid()), fixedSlice: true,
			open: openSim,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sized scales the operation list to the requested timed length: the
// slices keep their number and shrink, down to one unit of the mix
// each; below that (a -quick run) there are fewer of them.
func (w *workload) sized(seconds float64) (slices, opsPerSlice int) {
	scale := seconds / refSeconds
	if w.fixedSlice {
		if passes := float64(w.slices) * scale; passes < 1 {
			return 1, atLeast(int(passes*float64(w.opsPerSlice)+0.5), 1)
		}
		return int(float64(w.slices)*scale + 0.5), w.opsPerSlice
	}
	units := float64(w.opsPerSlice) * scale / float64(w.opsMultiple)
	if units < 1 {
		return atLeast(int(units*float64(w.slices)+0.5), 1), w.opsMultiple
	}
	return w.slices, int(units+0.5) * w.opsMultiple
}

func atLeast(n, floor int) int {
	if n < floor {
		return floor
	}
	return n
}

// patterns returns the deterministic block every origin contributes to
// a Run of the given size.
func patterns(p int, size int64) [][]byte {
	out := make([][]byte, p)
	for r := range out {
		out[r] = block.FillPattern(r, size)
	}
	return out
}

// runOK is the per-operation oracle: no error, a clean security audit,
// and the block of one seeded (rank, origin) pair equal to what origin
// contributed. pick encodes the pair as rank*p+origin.
func runOK(res *encag.RunResult, err error, want [][]byte, pick int) bool {
	if err != nil || res == nil || !res.SecurityOK || len(res.Violations) != 0 {
		return false
	}
	p := len(want)
	rank, origin := pick/p, pick%p
	if len(res.Gathered) != p || len(res.Gathered[rank]) != p {
		return false
	}
	return bytes.Equal(res.Gathered[rank][origin], want[origin])
}

// gatherExact compares every rank's view of every block.
func gatherExact(res *encag.RunResult, want [][]byte) bool {
	p := len(want)
	if res == nil || len(res.Gathered) != p {
		return false
	}
	for r := 0; r < p; r++ {
		if len(res.Gathered[r]) != p {
			return false
		}
		for o := 0; o < p; o++ {
			if !bytes.Equal(res.Gathered[r][o], want[o]) {
				return false
			}
		}
	}
	return true
}

// ---- tcp-small, tcp-large-pipe, tcp-overlap ----

type tcpShape struct {
	spec   encag.Spec
	alg    encag.Alg
	size   int64
	opts   []encag.Option
	window int // > 0: nonblocking Start with this many operations in flight, one session per slice
}

type inflight struct {
	h   *encag.Handle
	t0  time.Time
	i   int
	sp  spanID                // traced pass: the operation's Start-to-Wait span
	col *encag.TraceCollector // traced pass: the operation's per-rank events
}

type tcpInstance struct {
	shape *tcpShape
	sess  *encag.Session
	want  [][]byte
	picks []int
	ring  []inflight
	acc   *layerAcc
}

func (t *tcpInstance) openSession() error {
	opts := append([]encag.Option{encag.WithEngine(encag.EngineTCP)}, t.shape.opts...)
	sess, err := encag.OpenSession(ctx, t.shape.spec, opts...)
	if err != nil {
		return fmt.Errorf("open tcp session: %w", err)
	}
	t.sess = sess
	return nil
}

func openTCP(shape *tcpShape) (instance, error) {
	t := &tcpInstance{
		shape: shape,
		want:  patterns(shape.spec.Procs, shape.size),
		ring:  make([]inflight, shape.window),
		acc:   newLayerAcc(),
	}
	opened := time.Now()
	if err := t.openSession(); err != nil {
		return nil, err
	}
	t.acc.openMS = msSince(opened)
	opened = time.Now()
	var res *encag.RunResult
	var err error
	if shape.window > 0 {
		var h *encag.Handle
		if h, err = t.sess.Start(ctx, shape.alg, shape.size); err == nil {
			res, err = h.Wait()
		}
	} else {
		res, err = t.sess.Run(ctx, shape.alg, shape.size)
	}
	if !runOK(res, err, t.want, 0) || !gatherExact(res, t.want) {
		t.close()
		return nil, fmt.Errorf("first %s operation failed its check: %v", shape.alg, err)
	}
	t.acc.firstOpMS = msSince(opened)
	return t, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// close folds the session's counters into the instance's totals before
// closing it, so counters() covers every session the instance has used.
func (t *tcpInstance) close() {
	if t.sess != nil {
		t.acc.closed.addSession(t.sess.Snapshot())
		t.sess.Close()
		t.sess = nil
	}
}

func (t *tcpInstance) layers() *layerAcc { return t.acc }

func (t *tcpInstance) probe(out map[string]float64) {
	if t.sess == nil { // tcp-overlap closed its last epoch's session
		if err := t.openSession(); err != nil {
			return
		}
	}
	out["metrics.snapshot_us"] = perIter(microBudget/2, func() { _ = t.sess.Snapshot() }) / 1e3
}

func (t *tcpInstance) counters() counterSet {
	c := t.acc.closed
	if t.sess != nil {
		c.addSession(t.sess.Snapshot())
	}
	c.saturated = seal.SharedPool().Stats().Saturated
	return c
}

func (t *tcpInstance) seedPicks(sl *slice) {
	p := t.shape.spec.Procs
	t.picks = t.picks[:0]
	for i := 0; i < sl.ops; i++ {
		t.picks = append(t.picks, sl.rng.Intn(p*p))
	}
}

func (t *tcpInstance) slice(sl *slice) {
	t.seedPicks(sl)
	if t.shape.window > 0 {
		t.epoch(sl)
	} else {
		sl.each(1, func(_, i int) bool {
			res, err := t.run(sl)
			ok := runOK(res, err, t.want, t.picks[i])
			if ok && i%deepEvery == 0 {
				sl.later(func() bool { return gatherExact(res, t.want) })
			}
			return ok
		})
	}
}

// run issues one blocking operation; on the traced pass it wraps it in
// spans and hands the runtime a per-operation collector.
func (t *tcpInstance) run(sl *slice) (*encag.RunResult, error) {
	if sl.tr == nil {
		return t.sess.Run(ctx, t.shape.alg, t.shape.size)
	}
	return tracedRun(sl.tr, t.acc, 0, 0, "wire", t.shape.spec, t.shape.size, func(opt encag.Option) (*encag.RunResult, error) {
		return t.sess.Run(ctx, t.shape.alg, t.shape.size, opt)
	})
}

// tracedRun wraps one blocking all-gather in a span, hands the runtime
// a collector for that operation alone, and feeds the layer table.
// sendLayer is the layer a rank's send intervals belong to: the wire on
// the tcp engine, the cluster runtime itself on the chan engine.
func tracedRun(tr *tracer, acc *layerAcc, client int, parent spanID, sendLayer string, spec encag.Spec, size int64,
	run func(encag.Option) (*encag.RunResult, error)) (*encag.RunResult, error) {
	col := &encag.TraceCollector{}
	sp := tr.begin("encag", "Session.Run", client, parent)
	t0 := time.Now()
	res, err := run(encag.WithTracer(col))
	callerUS := usSince(t0)
	tr.end(sp)
	if err == nil {
		crit := criticalEvents(col)
		tr.runtimeSpans(sp, res, crit, sendLayer)
		acc.observeRun(callerUS, res, crit, spec, size)
	}
	return res, err
}

// epoch is one tcp-overlap slice: a fresh session, the slice's
// operations started nonblocking with `window` in flight (wait for the
// oldest, start the next), WaitAll, Close. A session keeps the result of
// every operation it ever started until Close, so a bounded epoch keeps
// that retention bounded; the traced pass reports it.
func (t *tcpInstance) epoch(sl *slice) {
	t.close()
	var heapBefore uint64
	if sl.tr != nil {
		heapBefore = liveHeap()
	}
	if err := t.openSession(); err != nil {
		sl.failed += sl.ops
		sl.lat = sl.lat[:0]
		return
	}
	sl.lat = sl.lat[:sl.ops]
	window := t.shape.window
	sl.timed(func() {
		head, n, next := 0, 0, 0
		for next < sl.ops || n > 0 {
			if next < sl.ops && n < window {
				f := inflight{t0: time.Now(), i: next}
				var err error
				if sl.tr == nil {
					f.h, err = t.sess.Start(ctx, t.shape.alg, t.shape.size)
				} else {
					t.acc.inflight = append(t.acc.inflight, float64(t.sess.InFlight()))
					f.col = &encag.TraceCollector{}
					f.sp = sl.tr.begin("sched", "Start..Wait", 0, 0)
					f.h, err = t.sess.Start(ctx, t.shape.alg, t.shape.size, encag.WithTracer(f.col))
				}
				if err != nil {
					sl.lat[next] = usSince(f.t0)
					sl.failed++
				} else {
					t.ring[(head+n)%window] = f
					n++
				}
				next++
				continue
			}
			f := t.ring[head]
			t.ring[head] = inflight{}
			head, n = (head+1)%window, n-1
			res, err := f.h.Wait()
			sl.lat[f.i] = usSince(f.t0)
			if !runOK(res, err, t.want, t.picks[f.i]) {
				sl.failed++
			} else if f.i%deepEvery == 0 {
				sl.later(func() bool { return gatherExact(res, t.want) })
			}
			if sl.tr != nil {
				sl.tr.end(f.sp)
				if err == nil {
					crit := criticalEvents(f.col)
					sl.tr.runtimeSpans(f.sp, res, crit, "wire")
					t.acc.observeRun(sl.lat[f.i], res, crit, t.shape.spec, t.shape.size)
				}
			}
		}
		if err := t.sess.WaitAll(ctx); err != nil {
			sl.failed++
		}
	})
	if sl.tr != nil {
		t.acc.afterEpoch(sl.ops, heapBefore)
		t.close()
	}
}

// ---- serve-mix ----

const (
	serveTenants = 8
	serveClients = 2
)

var serveSizes = []int64{1 << 10, 16 << 10, 256 << 10}

// serveUnit is the smallest list with serve-mix's exact proportions:
// 4 Steps and 1 Allreduce at each of the three sizes.
const serveUnit = 15

// serveOp is one step of the serve-mix list.
type serveOp struct {
	tenant    int
	size      int // index into serveSizes
	allreduce bool
	pick      int
}

type serveInstance struct {
	mgr     *serve.Manager
	spec    encag.Spec
	tenants []string
	want    [][][]byte // per size: the block each rank contributes to a Step
	vectors [][][]byte // per size: the vector each rank contributes to an Allreduce
	reduced [][]byte   // per size: the expected XOR of vectors
	ops     []serveOp
	acc     *layerAcc
}

// serveSeed fixes the Allreduce input vectors. They are made once per
// instance, not per operation, so generating them stays out of the
// measured allocation counts.
var serveSeed int64

func openServe() (instance, error) {
	spec := encag.Spec{Procs: 4, Nodes: 2}
	s := &serveInstance{spec: spec, acc: newLayerAcc()}
	rng := rand.New(rand.NewSource(serveSeed))
	for _, size := range serveSizes {
		s.want = append(s.want, patterns(spec.Procs, size))
		vec := make([][]byte, spec.Procs)
		sum := make([]byte, size)
		for r := range vec {
			vec[r] = make([]byte, size)
			rng.Read(vec[r])
			encag.XORCombine(sum, vec[r])
		}
		s.vectors = append(s.vectors, vec)
		s.reduced = append(s.reduced, sum)
	}
	opened := time.Now()
	mgr, err := serve.Open(serve.Config{
		Spec: spec,
		// A nil table and no refinement keep alg=auto on the built-in
		// thresholds, so the same size always resolves to the same
		// algorithm whatever the host measured earlier.
		SessionOptions: []encag.Option{encag.WithTuningTable(nil), encag.WithTuningRefinement(false)},
	})
	if err != nil {
		return nil, fmt.Errorf("serve.Open: %w", err)
	}
	s.mgr = mgr
	for i := 0; i < serveTenants; i++ {
		id := fmt.Sprintf("t%d", i)
		s.tenants = append(s.tenants, id)
		if err := mgr.Warm(ctx, id); err != nil {
			s.close()
			return nil, fmt.Errorf("warm tenant %s: %w", id, err)
		}
	}
	s.acc.openMS = msSince(opened)
	opened = time.Now()
	res, err := mgr.Step(ctx, s.tenants[0], encag.AlgAuto, serveSizes[0])
	if !runOK(res, err, s.want[0], 0) || !gatherExact(res, s.want[0]) {
		s.close()
		return nil, fmt.Errorf("first serve step failed its check: %v", err)
	}
	s.acc.firstOpMS = msSince(opened)
	return s, nil
}

func (s *serveInstance) close() { s.mgr.Close() }

func (s *serveInstance) layers() *layerAcc { return s.acc }

func (s *serveInstance) probe(out map[string]float64) {
	out["metrics.snapshot_us"] = perIter(microBudget/2, func() { _ = s.mgr.Snapshot() }) / 1e3
	snap := s.mgr.Snapshot()
	var rejected, reaps int64
	for _, n := range snap.Rejected {
		rejected += n
	}
	for _, n := range snap.Reaps {
		reaps += n
	}
	if offered := snap.Admitted + rejected; offered > 0 {
		out["serve.rejected_ratio"] = float64(rejected) / float64(offered)
	}
	out["serve.reaps"] = float64(reaps)
	// Evict each tenant in turn and time how long its readmission takes.
	var reopen []float64
	for _, id := range s.tenants {
		if !s.mgr.Evict(id) {
			continue
		}
		t0 := time.Now()
		if err := s.mgr.Warm(ctx, id); err == nil {
			reopen = append(reopen, msSince(t0))
		}
	}
	if len(reopen) > 0 {
		out["serve.reopen_ms"] = median(reopen)
	}
}

func (s *serveInstance) counters() counterSet {
	var c counterSet
	snap := s.mgr.Snapshot()
	for _, tn := range snap.Tenants {
		if tn.Session != nil {
			c.addSession(*tn.Session)
		}
	}
	c.saturated = snap.Pool.Saturated
	return c
}

// mix fills the slice's operation list. Every block of serveUnit
// operations holds the same multiset and consecutive blocks go to
// alternate clients, so every slice, every client and every seed does
// the same total work; the seed sets only the order within a block, the
// tenant and the checked block.
func (s *serveInstance) mix(sl *slice) {
	base := make([]serveOp, 0, serveUnit)
	for size := range serveSizes {
		for k := 0; k < serveUnit/len(serveSizes); k++ {
			base = append(base, serveOp{size: size, allreduce: k == 0})
		}
	}
	var perClient [serveClients][]serveOp
	for b := 0; b*serveUnit < sl.ops; b++ {
		blk := append([]serveOp(nil), base...)
		sl.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		for i := range blk {
			blk[i].tenant = sl.rng.Intn(len(s.tenants))
			blk[i].pick = sl.rng.Intn(s.spec.Procs * s.spec.Procs)
		}
		perClient[b%serveClients] = append(perClient[b%serveClients], blk...)
	}
	// slice.each gives operation i to client i%clients.
	s.ops = s.ops[:0]
	for i := 0; i < sl.ops; i++ {
		s.ops = append(s.ops, perClient[i%serveClients][i/serveClients])
	}
}

func (s *serveInstance) slice(sl *slice) {
	s.mix(sl)
	sl.each(serveClients, func(c, i int) bool {
		op := s.ops[i]
		id := s.tenants[op.tenant]
		if op.allreduce {
			return s.allreduce(sl, c, id, op.size)
		}
		res, err := s.step(sl, c, id, serveSizes[op.size])
		ok := runOK(res, err, s.want[op.size], op.pick)
		if ok && i%deepEvery == 0 {
			sl.later(func() bool { return gatherExact(res, s.want[op.size]) })
		}
		return ok
	})
}

func (s *serveInstance) allreduce(sl *slice, client int, id string, size int) bool {
	var sp spanID
	t0 := time.Now()
	if sl.tr != nil {
		sp = sl.tr.begin("serve", "Manager.Allreduce", client, 0)
	}
	res, err := s.mgr.Allreduce(ctx, id, s.vectors[size], encag.XORCombine)
	if sl.tr != nil {
		sl.tr.end(sp)
		if err == nil {
			sl.tr.add(sp, "cluster", "allreduce", 0, res.Elapsed, 0)
		}
		s.acc.mu.Lock()
		s.acc.allreduceUS = append(s.acc.allreduceUS, usSince(t0))
		s.acc.mu.Unlock()
	}
	return err == nil && res.SecurityOK && len(res.Violations) == 0 && bytes.Equal(res.Result, s.reduced[size])
}

// step runs one Step. The traced pass spells Manager.Step out as the
// Manager.Do it wraps, so the session call inside it gets its own span.
func (s *serveInstance) step(sl *slice, client int, id string, size int64) (*encag.RunResult, error) {
	if sl.tr == nil {
		return s.mgr.Step(ctx, id, encag.AlgAuto, size)
	}
	var res *encag.RunResult
	sp := sl.tr.begin("serve", "Manager.Do", client, 0)
	t0 := time.Now()
	err := s.mgr.Do(ctx, id, func(sess *encag.Session) error {
		var rerr error
		res, rerr = tracedRun(sl.tr, s.acc, client, sp, "cluster", s.spec, size, func(opt encag.Option) (*encag.RunResult, error) {
			return sess.Run(ctx, encag.AlgAuto, size, opt)
		})
		return rerr
	})
	us := usSince(t0)
	sl.tr.end(sp)
	depth, _ := s.mgr.Registry().Snapshot()[serve.MetricQueueDepth].(int64)
	s.acc.mu.Lock()
	if err == nil {
		s.acc.stepOverUS = append(s.acc.stepOverUS, us-float64(res.Elapsed.Nanoseconds())/1e3)
		s.acc.stepUS[size] = append(s.acc.stepUS[size], us)
	}
	if depth > s.acc.queueMax {
		s.acc.queueMax = depth
	}
	s.acc.mu.Unlock()
	return res, err
}

// ---- sim-paper ----

type simCell struct {
	Alg  encag.Alg `json:"alg"`
	Size int64     `json:"size"`
}

// simGolden is one committed expectation: the virtual latency and the
// six-metric tuple the simulator must reproduce exactly.
type simGolden struct {
	simCell
	LatencyNS int64         `json:"latency_ns"`
	Metrics   encag.Metrics `json:"metrics"`
}

//go:embed testdata/sim_golden.json
var simGoldenJSON []byte

var simSpec = encag.Spec{Procs: 128, Nodes: 8}

func simGrid() []simCell {
	var grid []simCell
	for _, alg := range encag.PaperAlgorithms() {
		for _, size := range []int64{1, 1 << 10, 16 << 10, 256 << 10, 2 << 20} {
			grid = append(grid, simCell{Alg: alg, Size: size})
		}
	}
	return grid
}

type simInstance struct {
	sess   *encag.Session
	golden map[simCell]simGolden
	order  []int // this pass's shuffled indices into the grid
	acc    *layerAcc
}

func openSimSession() (*encag.Session, error) {
	sess, err := encag.OpenSession(ctx, simSpec, encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		return nil, fmt.Errorf("open sim session: %w", err)
	}
	return sess, nil
}

func openSim() (instance, error) {
	var rows []simGolden
	if err := json.Unmarshal(simGoldenJSON, &rows); err != nil {
		return nil, fmt.Errorf("testdata/sim_golden.json: %w", err)
	}
	s := &simInstance{golden: make(map[simCell]simGolden, len(rows)), acc: newLayerAcc()}
	for _, g := range rows {
		s.golden[g.simCell] = g
	}
	opened := time.Now()
	sess, err := openSimSession()
	if err != nil {
		return nil, err
	}
	s.sess = sess
	s.acc.openMS = msSince(opened)
	opened = time.Now()
	// The first simulation is a fixed mid-grid cell, so setup_s times the
	// same work whatever the seed.
	first := simCell{Alg: encag.AlgHS2, Size: 16 << 10}
	if !s.simulate(nil, first) {
		s.close()
		return nil, fmt.Errorf("first simulation %v failed its golden check", first)
	}
	s.acc.firstOpMS = msSince(opened)
	return s, nil
}

func (s *simInstance) close() { s.sess.Close() }

func (s *simInstance) layers() *layerAcc { return s.acc }

func (s *simInstance) probe(out map[string]float64) {
	out["metrics.snapshot_us"] = perIter(microBudget/2, func() { _ = s.sess.Snapshot() }) / 1e3
}

func (s *simInstance) counters() counterSet {
	var c counterSet
	c.addSession(s.sess.Snapshot())
	return c
}

// simulate runs one cell and compares its virtual latency and six
// metrics with the golden and with the paper's closed forms.
func (s *simInstance) simulate(tr *tracer, c simCell) bool {
	var sp spanID
	if tr != nil {
		sp = tr.begin("sim", "Session.Simulate", 0, 0)
	}
	res, err := s.sess.Simulate(ctx, c.Alg, c.Size)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return false
	}
	g, known := s.golden[c]
	ok := known && res.Algorithm == c.Alg && res.Latency.Nanoseconds() == g.LatencyNS && res.Metrics == g.Metrics
	if tr != nil {
		us := float64(tr.duration(sp).Nanoseconds()) / 1e3
		want, perr := encag.Predict(c.Alg, simSpec.Procs, simSpec.Nodes, c.Size)
		if c.Alg == encag.AlgNaive && res.Metrics.Rc == simSpec.Procs-1 {
			// Naive picks its collective by size as MVAPICH does and the
			// closed form tabulates the recursive-doubling case; on the
			// ring it takes for large blocks only the round count differs.
			want.Rc = simSpec.Procs - 1
		}
		a := s.acc
		a.simAllUS = append(a.simAllUS, us)
		if c.Size <= 1<<10 {
			a.simUS[false] = append(a.simUS[false], us)
		} else if c.Size >= 256<<10 {
			a.simUS[true] = append(a.simUS[true], us)
		}
		if !ok {
			a.simMismatch++
		}
		if perr != nil || !sixEqual(res.Metrics, want, simSpec.Procs) {
			a.mismatches++
		}
	}
	return ok
}

func (s *simInstance) slice(sl *slice) {
	grid := simGrid()
	s.order = s.order[:0]
	for i := range grid {
		s.order = append(s.order, i)
	}
	sl.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	sl.each(1, func(_, i int) bool { return s.simulate(sl.tr, grid[s.order[i]]) })
	if sl.ops == len(grid) {
		// A whole pass: put the latencies in grid order, so the runner can
		// follow each cell from pass to pass.
		byCell := make([]float64, len(grid))
		for i, cell := range s.order {
			byCell[cell] = sl.lat[i]
		}
		copy(sl.lat, byCell)
	}
}

// printGolden renders a fresh golden for the sim-paper grid.
func printGolden() ([]byte, error) {
	sess, err := openSimSession()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var rows []simGolden
	for _, c := range simGrid() {
		res, err := sess.Simulate(ctx, c.Alg, c.Size)
		if err != nil {
			return nil, fmt.Errorf("simulate %v: %w", c, err)
		}
		rows = append(rows, simGolden{simCell: c, LatencyNS: res.Latency.Nanoseconds(), Metrics: res.Metrics})
	}
	return json.MarshalIndent(rows, "", " ")
}
