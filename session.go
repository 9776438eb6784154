package encag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/encrypted"
	"encag/internal/metrics"
	"encag/internal/trace"
	"encag/internal/tune"
)

// Engine names a Session execution backend.
type Engine string

const (
	// EngineChan (the default) runs every rank as a goroutine with real
	// payload bytes and real AES-GCM, every message delivered in memory.
	EngineChan Engine = "chan"
	// EngineTCP puts inter-node traffic on real loopback TCP sockets
	// through the wire codec, with a byte-level sniffer on every
	// connection; same-node ranks deliver in memory, as on EngineChan.
	// A session dials its P·(P−ℓ) inter-node connections once and reuses
	// them for every collective.
	EngineTCP Engine = "tcp"
	// EngineSim runs on the deterministic discrete-event cluster model
	// in virtual time. Requires WithProfile.
	EngineSim Engine = "sim"
)

func (e Engine) kind() (cluster.EngineKind, error) {
	switch e {
	case "", EngineChan:
		return cluster.EngineChan, nil
	case EngineTCP:
		return cluster.EngineTCP, nil
	case EngineSim:
		return cluster.EngineSim, nil
	}
	return 0, fmt.Errorf("encag: unknown engine %q (want chan, tcp or sim)", string(e))
}

// TraceCollector gathers the TraceEvents of traced runs; pass one to
// WithTracer and read its Events field afterwards. It is goroutine-safe.
// Applies to all three engines (wall-clock events on chan/tcp, virtual
// time on sim).
type TraceCollector = trace.Collector

// Session-level errors, re-exported for errors.Is tests.
var (
	// ErrSessionClosed is returned by operations on a closed Session.
	ErrSessionClosed = cluster.ErrSessionClosed
	// ErrSessionBroken is returned once the session's transport has
	// become unrecoverable — wire-level corruption (a garbled frame
	// stream, a sequence-gate desync, a reader starved by a corrupted
	// length field) or organic transport death. Like an MPI communicator
	// after a fatal transport error, the session then refuses further
	// operations; open a new one. Operation-scoped failures — context
	// cancellation, fault-plan outcomes, authentication rejections,
	// receive timeouts — fail only that operation and leave the session
	// (and any concurrent operations on it) fully usable.
	ErrSessionBroken = cluster.ErrSessionBroken
)

// sessionOptions is the merged view of a call's functional options.
type sessionOptions struct {
	engine      Engine
	tracer      *TraceCollector
	plan        *FaultPlan
	profile     Profile
	profileSet  bool
	maxInFlight int
	pipelining  bool
	tuning      *tune.Table
	tuningSet   bool
	refine      bool
	refineSet   bool
	pool        *CryptoPool
	// sessionOnly names the first session-level option applied; a
	// per-operation option list must leave it empty (see opLevel).
	sessionOnly string
}

// Option configures OpenSession or an individual Session operation.
// WithTracer and WithFaultPlan are valid at both levels, the
// per-operation value overriding the session default for that
// collective; every other option is session-level only.
type Option func(*sessionOptions)

// sessionLevel builds an option only OpenSession accepts: applying it
// records its name, which is what a per-operation call refuses.
func sessionLevel(name string, set func(*sessionOptions)) Option {
	return func(o *sessionOptions) {
		if o.sessionOnly == "" {
			o.sessionOnly = name
		}
		set(o)
	}
}

// WithEngine selects the execution backend (session-level only;
// default EngineChan).
func WithEngine(e Engine) Option {
	return sessionLevel("WithEngine", func(o *sessionOptions) { o.engine = e })
}

// WithTracer attaches an activity-timeline collector: every send,
// recv-wait, encrypt, decrypt, copy and barrier interval of every rank
// is recorded (wall-clock seconds on chan/tcp, virtual seconds on sim).
func WithTracer(col *TraceCollector) Option {
	return func(o *sessionOptions) { o.tracer = col }
}

// WithFaultPlan applies a deterministic fault-injection plan (chan and
// tcp engines). A fresh injector is armed per collective, so the plan's
// frame counters restart each operation. Both links take one verdict
// per frame where they write or deliver it: byte-exact on TCP frames,
// at message granularity on chan. Read stalls apply on both; on chan a
// read stall also holds the sending rank's later messages. The TCP
// transport absorbs
// transient faults (drops, stalls, partial writes) by reconnecting and
// resending; the chan transport has no connection to re-establish, so a
// dropped message surfaces as a bounded recv error at the starved peer.
// Either way a collective under a plan completes with verified,
// byte-exact buffers or returns a single *RankError naming the first
// faulting rank, peer and operation.
func WithFaultPlan(plan *FaultPlan) Option {
	return func(o *sessionOptions) { o.plan = plan }
}

// WithProfile sets the machine model for EngineSim (session-level only;
// required for sim sessions, ignored by the real engines).
func WithProfile(prof Profile) Option {
	return sessionLevel("WithProfile", func(o *sessionOptions) { o.profile, o.profileSet = prof, true })
}

// WithMaxInFlight bounds how many collectives may run concurrently on a
// session, started (Session.Start) and blocking (Run, Allgather, …)
// alike: each runs on one of n rank slots, and a call beyond the window
// waits until a slot frees. Session-level only; n <= 0 selects
// DefaultMaxInFlight. Applies to the chan and tcp engines, where it
// also bounds the session's rank goroutines at n × Procs; EngineSim runs
// every collective synchronously, so the window never fills there.
func WithMaxInFlight(n int) Option {
	return sessionLevel("WithMaxInFlight", func(o *sessionOptions) { o.maxInFlight = n })
}

// WithPipelining toggles intra-collective pipelining on the tcp engine
// (session-level only; default off). When on, a large encrypted message
// that is one freshly sealed chunk is split into independently sealed
// segments that go onto the wire one at a time as they seal, and the
// receiver authenticates each segment as it lands — overlapping AES-GCM
// work with transport inside a single operation. Every other message
// (several chunks, forwarded ciphertext, plaintext) travels whole. Tampering with, reordering or splicing any individual
// segment fails that operation closed, as with whole-message sealing.
// EngineChan and EngineSim ignore it.
func WithPipelining(on bool) Option {
	return sessionLevel("WithPipelining", func(o *sessionOptions) { o.pipelining = on })
}

func applyOpts(opts []Option) *sessionOptions {
	o := &sessionOptions{}
	for _, fn := range opts {
		if fn != nil {
			fn(o)
		}
	}
	return o
}

// opLevel validates a per-operation option list.
func opLevel(opts []Option) (*sessionOptions, error) {
	o := applyOpts(opts)
	if o.sessionOnly != "" {
		return nil, fmt.Errorf("encag: %s is a session-level option; pass it to OpenSession", o.sessionOnly)
	}
	return o, nil
}

// Session is a persistent collective runtime: open once, run many
// collectives over long-lived engine state, close once. For EngineTCP
// the listeners, the P·(P−ℓ) dialed inter-node connections, handshakes,
// sequence gates and per-rank send schedulers survive across
// operations — only OpenSession pays the setup; every frame carries its
// operation's id, so the frames of concurrent collectives are
// demultiplexed to the right operation and stragglers from retired ones
// are discarded. Same-node ranks deliver in memory. For
// EngineChan the sealer and send schedulers persist. EngineSim sessions
// hold the machine profile.
//
// Collectives may overlap: the blocking methods (Run, Allgather, …) are
// safe to call from concurrent goroutines, and Start launches
// nonblocking operations multiplexed over the same mesh, all within one
// WithMaxInFlight window. Contexts cancel mid-operation on the real
// engines: the run aborts and drains through the structured RankError
// machinery (Op "cancel") without leaking goroutines, and only that
// operation fails — the session breaks (ErrSessionBroken) only when the
// transport itself is unrecoverable.
type Session struct {
	spec   Spec
	cs     cluster.Spec
	engine Engine
	plan   *FaultPlan // session-level default
	inner  *cluster.Session

	// starts numbers the operations Start launches; failAt and failErr
	// are the earliest-started one that failed, what WaitAll reports.
	starts  atomic.Uint64
	failMu  sync.Mutex
	failAt  uint64
	failErr error

	// AlgAuto machinery: the tuner resolves auto operations to concrete
	// algorithms (tuning table + online refinement), pipelined keys the
	// tuning cell, and autoSel caches the per-algorithm selection
	// counters of the encag_auto_selected_total family.
	tuner     *tune.Tuner
	refine    bool
	pipelined bool
	autoMu    sync.Mutex
	autoSel   map[Alg]*metrics.Counter
}

// OpenSession validates the spec, stands up the persistent engine state
// and returns the ready session: for EngineTCP one listener per rank and
// one dialed connection per ordered inter-node pair, P·(P−ℓ) in all
// (ℓ ranks per node); same-node pairs need none. The context bounds
// session setup (it is checked before any connection is dialed); it
// does not have to outlive the session. Defaults: EngineChan, no
// tracer, no fault plan.
func OpenSession(ctx context.Context, spec Spec, opts ...Option) (*Session, error) {
	o := applyOpts(opts)
	kind, err := o.engine.kind()
	if err != nil {
		return nil, err
	}
	if kind == cluster.EngineSim && !o.profileSet {
		return nil, errors.New("encag: EngineSim sessions require WithProfile")
	}
	cs, err := spec.toCluster()
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	tab, err := sessionTuning(o)
	if err != nil {
		return nil, err
	}
	cfg := cluster.SessionConfig{Engine: kind, Plan: o.plan, Profile: o.profile, CryptoPool: o.pool,
		Pipelining: o.pipelining, MaxInFlight: o.maxInFlight}
	if o.tracer != nil {
		cfg.Tracer = o.tracer
	}
	inner, err := cluster.OpenSession(cs, cfg)
	if err != nil {
		return nil, err
	}
	eng := o.engine
	if eng == "" {
		eng = EngineChan
	}
	s := &Session{
		spec:      spec,
		cs:        cs,
		engine:    eng,
		plan:      o.plan,
		inner:     inner,
		tuner:     tune.NewTuner(tab, autoCandidate),
		refine:    !o.refineSet || o.refine,
		pipelined: o.pipelining,
		autoSel:   make(map[Alg]*metrics.Counter),
	}
	// The window families keep the names this package exports; they
	// read the cluster session's rank-slot pool, which is the window.
	reg := inner.Metrics()
	reg.GaugeFunc(MetricWindow, "In-flight window size (WithMaxInFlight).",
		func() int64 { return int64(inner.MaxInFlight()) })
	reg.GaugeFunc(MetricWindowInFlight, "Collectives currently holding a window slot.",
		func() int64 { return int64(inner.InFlight()) })
	reg.CounterFunc(MetricWindowWaits, "Collectives that found the window full and waited.",
		inner.WindowWaits)
	return s, nil
}

// Engine returns the session's execution backend.
func (s *Session) Engine() Engine { return s.engine }

// Spec returns the session's job layout.
func (s *Session) Spec() Spec { return s.spec }

// Err returns the error that broke the session, or nil while healthy.
func (s *Session) Err() error { return s.inner.Err() }

// Rekey replaces the session's AES-GCM key with a fresh random one
// (chan and tcp engines; a no-op on sim, which only models crypto cost).
// It never waits for collectives in flight: they finish on the key they
// were started with, and later operations seal under the new key. A key
// also rotates by itself long before SP 800-38D's 2³² seals per key.
func (s *Session) Rekey() error { return s.inner.Rekey() }

// Close tears down the persistent engine state: new collectives are
// refused, in-flight collectives are aborted (their handles resolve to
// a structured error wrapping ErrSessionClosed), callers waiting for the
// window get such an error too, and the transport (TCP mesh, send
// schedulers) is drained. Idempotent; always returns nil.
func (s *Session) Close() error {
	return s.inner.Close()
}

// Metrics returns the session's live metrics registry: atomic counters,
// gauges and latency/size histograms updated by the runtime while
// collectives execute. Expose it with WritePrometheus or ExpvarFunc, or
// read a typed view with Snapshot.
func (s *Session) Metrics() *MetricsRegistry { return s.inner.Metrics() }

// Snapshot reads the session's live metrics into one typed view,
// including the in-flight window state. Safe to call at any time,
// including while collectives are in flight.
func (s *Session) Snapshot() MetricsSnapshot {
	snap := s.inner.Snapshot()
	s.autoMu.Lock()
	if len(s.autoSel) > 0 {
		snap.AutoSelected = make(map[string]int64, len(s.autoSel))
		for a, c := range s.autoSel {
			snap.AutoSelected[string(a)] = c.Value()
		}
	}
	s.autoMu.Unlock()
	return snap
}

// WireReport is the byte-level view an inter-node eavesdropper got of an
// EngineTCP session, cumulative over every collective run on it.
type WireReport struct {
	// Bytes is the total inter-node volume observed.
	Bytes int64
	// Truncated reports that the capture buffer hit its cap and dropped
	// bytes: Observed then only covers the captured prefix.
	Truncated bool

	sniffer *cluster.WireSniffer
}

// Observed reports whether needle appeared in the captured inter-node
// wire bytes.
func (w *WireReport) Observed(needle []byte) bool {
	if w == nil || w.sniffer == nil {
		return false
	}
	return w.sniffer.Contains(needle)
}

// Wire returns the session's cumulative wire capture (EngineTCP only;
// nil on other engines, which have no wire).
func (s *Session) Wire() *WireReport {
	sn := s.inner.Sniffer()
	if sn == nil {
		return nil
	}
	return &WireReport{Bytes: sn.Total(), Truncated: sn.Truncated(), sniffer: sn}
}

// WireClean reports whether none of the deterministic per-rank test
// patterns of msgSize bytes appear in the captured inter-node wire
// bytes (EngineTCP; trivially true on engines without a wire, and for
// patterns under 16 bytes, which are too short to scan meaningfully).
func (s *Session) WireClean(msgSize int64) bool {
	sn := s.inner.Sniffer()
	if sn == nil || msgSize < 16 {
		return true
	}
	for r := 0; r < s.cs.P; r++ {
		if sn.Contains(block.PatternFill(r, msgSize)) {
			return false
		}
	}
	return true
}

// checkOp validates what every collective entry point is handed before
// anything runs: the per-operation options and the algorithm name.
func checkOp(algorithm Alg, opts []Option) (*sessionOptions, Alg, error) {
	o, err := opLevel(opts)
	if err != nil {
		return nil, "", err
	}
	a, err := ParseAlg(string(algorithm))
	return o, a, err
}

// buildOp assembles the cluster-level operation from per-call options.
func buildOp(alg cluster.Algorithm, sizes []int64, payloads [][]byte, o *sessionOptions) cluster.Op {
	op := cluster.Op{Algo: alg, Sizes: sizes, Payloads: payloads, Plan: o.plan}
	if o.tracer != nil {
		op.Tracer = o.tracer
	}
	return op
}

// contributionSizes checks that data holds one contribution per rank
// and returns their lengths. A uniform collective takes rank 0's length
// for every rank, so ragged input fails the runtime's payload check
// instead of quietly running as an all-gatherv.
func (s *Session) contributionSizes(data [][]byte, uniform bool) ([]int64, error) {
	if len(data) != s.cs.P {
		return nil, fmt.Errorf("encag: %d contributions for %d ranks", len(data), s.cs.P)
	}
	if uniform {
		return block.UniformSizes(s.cs.P, int64(len(data[0]))), nil
	}
	sizes := make([]int64, len(data))
	for r, d := range data {
		sizes[r] = int64(len(d))
	}
	return sizes, nil
}

// maxOf is the largest contribution of an operation: what AlgAuto
// dispatch and the tuning cell key on. It mirrors Proc.MaxBlockSize —
// the value every rank knows — so mixed contributions cannot make ranks
// disagree on the selected algorithm.
func maxOf(sizes []int64) int64 {
	var m int64
	for _, sz := range sizes {
		if sz > m {
			m = sz
		}
	}
	return m
}

// gatherCall is an all-gather on the chan and tcp engines from its
// start to its result: what conclude needs to judge it.
type gatherCall struct {
	used     Alg
	sizes    []int64
	largest  int64
	patterns bool // the deterministic per-rank test patterns
	planned  bool // under a fault plan
	noun     string
}

// prepare resolves an all-gather on the caller: the algorithm (AlgAuto
// included) and the cluster-level operation. o and a come from
// checkOp; sizes[r] is rank r's contribution length; payloads is nil
// for the deterministic per-rank test patterns; noun names the
// collective in a validation error.
func (s *Session) prepare(o *sessionOptions, a Alg, sizes []int64, payloads [][]byte, noun string) (cluster.Op, gatherCall) {
	g := gatherCall{sizes: sizes, largest: maxOf(sizes), patterns: payloads == nil,
		planned: o.plan != nil || s.plan != nil, noun: noun}
	impl, used := s.resolveAlg(a, g.largest)
	g.used = used
	return buildOp(impl, sizes, payloads, o), g
}

// conclude is the one ending of every all-gather in this layer, blocking
// or started. It converts a finished collective into the public
// RunResult and feeds its latency to the tuner. Every rank's message
// must be a complete plaintext gather of sizes. Self-generated patterns
// are also checked byte for byte against their origin over TCP and
// under any fault plan, each distinct gathered buffer once, those larger
// than one seal segment on the session's crypto worker pool;
// user-supplied bytes are validated for structure only. Gathered holds
// views into the result messages, not copies; those are plaintext the
// runtime made for this operation, never a recycled ciphertext buffer.
func (s *Session) conclude(g *gatherCall, res *cluster.RealResult, err error) (*RunResult, error) {
	if err != nil {
		return nil, err
	}
	check := g.patterns && (g.planned || s.engine == EngineTCP)
	views, err := cluster.GatherViews(s.cs, g.sizes, res.Results, check, s.inner.Sealer().Pool())
	if err != nil {
		noun := g.noun
		switch {
		case g.patterns && g.planned:
			// Corruption that survived transport (unauthenticated bytes the
			// plan hit) must fail closed as a structured error, never be
			// silently delivered.
			return nil, &RankError{Rank: -1, Peer: -1, Op: "validate",
				Err: fmt.Errorf("fault corrupted the gathered result: %w", err)}
		case g.patterns && s.engine == EngineTCP:
			noun += " over TCP"
		}
		return nil, fmt.Errorf("encag: %s produced an invalid %s: %w", g.used, noun, err)
	}
	rr := judge(res.PerRank)
	rr.Gathered, rr.Metrics, rr.Elapsed = views, res.Critical, res.Elapsed
	rr.OpID, rr.Algorithm = res.OpID, g.used
	s.observeLatency(g.planned, g.largest, g.used, rr.Elapsed)
	return &rr, nil
}

// gather is the one blocking path of every all-gather on the chan and
// tcp engines; Run, Allgather and AllgatherV differ only in what they
// hand it (see prepare), and Start ends the same way (see conclude).
func (s *Session) gather(ctx context.Context, o *sessionOptions, a Alg, sizes []int64, payloads [][]byte, noun string) (*RunResult, error) {
	op, g := s.prepare(o, a, sizes, payloads, noun)
	res, err := s.inner.Collective(ctx, op)
	return s.conclude(&g, res, err)
}

// judge is the one security verdict of a finished operation, the same
// on every engine: each rank's Proc checked every send it made, and the
// operation is secure when no inter-node send carried a plaintext
// chunk. Nonces need no check; they are unique by construction. It
// fills the verdict and message counts of a RunResult.
func judge(perRank []cluster.Metrics) RunResult {
	msgs := cluster.MessageTotals(perRank)
	return RunResult{
		SecurityOK:    msgs.PlainInterMsgs == 0,
		InterMessages: msgs.InterMsgs,
		IntraMessages: msgs.IntraMsgs,
		Violations:    msgs.Violations,
	}
}

// Run executes one encrypted all-gather with deterministic per-rank test
// payloads of msgSize bytes on the session's chan or tcp engine (use
// Simulate on sim sessions). Per-op options: WithTracer, WithFaultPlan.
func (s *Session) Run(ctx context.Context, algorithm Alg, msgSize int64, opts ...Option) (*RunResult, error) {
	o, a, err := checkOp(algorithm, opts)
	if err != nil {
		return nil, err
	}
	return s.gather(ctx, o, a, block.UniformSizes(s.cs.P, msgSize), nil, "gather")
}

// Allgather executes one encrypted all-gather with caller-supplied
// contributions on the session's chan or tcp engine: data[r] is rank
// r's block (all equal length).
func (s *Session) Allgather(ctx context.Context, algorithm Alg, data [][]byte, opts ...Option) (*RunResult, error) {
	return s.allgather(ctx, algorithm, data, true, "gather", opts)
}

// AllgatherV is the variable-block-size (all-gatherv) collective on the
// session's chan or tcp engine: each rank's contribution may have a
// different length, including zero.
func (s *Session) AllgatherV(ctx context.Context, algorithm Alg, data [][]byte, opts ...Option) (*RunResult, error) {
	return s.allgather(ctx, algorithm, data, false, "gatherv", opts)
}

func (s *Session) allgather(ctx context.Context, algorithm Alg, data [][]byte, uniform bool, noun string, opts []Option) (*RunResult, error) {
	o, a, err := checkOp(algorithm, opts)
	if err != nil {
		return nil, err
	}
	sizes, err := s.contributionSizes(data, uniform)
	if err != nil {
		return nil, err
	}
	return s.gather(ctx, o, a, sizes, data, noun)
}

// Allreduce performs one encrypted all-reduce on the session's chan or
// tcp engine: data[r] is rank r's vector (all equal length); op combines
// two vectors and must be associative and commutative, like an MPI_Op.
func (s *Session) Allreduce(ctx context.Context, data [][]byte, op CombineFunc, opts ...Option) (*ReduceResult, error) {
	o, err := opLevel(opts)
	if err != nil {
		return nil, err
	}
	if s.engine == EngineSim {
		return nil, errors.New("encag: Allreduce needs a chan or tcp session")
	}
	sizes, err := s.contributionSizes(data, true)
	if err != nil {
		return nil, err
	}
	m := sizes[0]
	res, err := s.inner.Collective(ctx, buildOp(encrypted.AllreduceHS(op), sizes, data, o))
	if err != nil {
		return nil, err
	}
	// Rank 0's result, copied once, is the reference (nil when m is 0);
	// every other rank is compared with it chunk by chunk.
	var reference []byte
	if m > 0 {
		reference = make([]byte, 0, m)
	}
	for r, msg := range res.Results {
		var n int64
		agree := true
		for _, c := range msg.Chunks {
			if c.Enc {
				return nil, fmt.Errorf("encag: rank %d result still encrypted", r)
			}
			end := n + int64(len(c.Payload))
			if r == 0 {
				reference = append(reference, c.Payload...)
			} else {
				agree = agree && end <= int64(len(reference)) && bytes.Equal(c.Payload, reference[n:end])
			}
			n = end
		}
		if n != m {
			return nil, fmt.Errorf("encag: rank %d reduced to %d bytes, want %d", r, n, m)
		}
		if !agree {
			return nil, fmt.Errorf("encag: ranks disagree on the reduction result")
		}
	}
	v := judge(res.PerRank)
	return &ReduceResult{
		Result:     reference,
		Metrics:    res.Critical,
		SecurityOK: v.SecurityOK,
		Violations: v.Violations,
		Elapsed:    res.Elapsed,
	}, nil
}

// Simulate runs one collective on an EngineSim session's discrete-event
// model and reports the projected latency and cost metrics. The context
// is checked on entry only: sim runs execute in virtual time and are not
// cancellable mid-flight.
func (s *Session) Simulate(ctx context.Context, algorithm Alg, msgSize int64, opts ...Option) (SimResult, error) {
	o, a, err := checkOp(algorithm, opts)
	if err != nil {
		return SimResult{}, err
	}
	res, _, err := s.simulate(ctx, o, a, block.UniformSizes(s.cs.P, msgSize), "gather")
	return res, err
}

// SimulateV is the all-gatherv variant of Simulate: sizes[r] is rank
// r's contribution length in bytes.
func (s *Session) SimulateV(ctx context.Context, algorithm Alg, sizes []int64, opts ...Option) (SimResult, error) {
	o, a, err := checkOp(algorithm, opts)
	if err != nil {
		return SimResult{}, err
	}
	res, _, err := s.simulate(ctx, o, a, sizes, "gatherv")
	return res, err
}

// simulate is the one path of every simulation; o and a come from
// checkOp, and Simulate, SimulateV and Start on a sim session differ
// only in sizes. It also returns the run's per-rank counters.
func (s *Session) simulate(ctx context.Context, o *sessionOptions, a Alg, sizes []int64, noun string) (SimResult, []cluster.Metrics, error) {
	impl, used := s.resolveAlg(a, maxOf(sizes))
	res, err := s.inner.Sim(ctx, buildOp(impl, sizes, nil, o))
	if err != nil {
		return SimResult{}, nil, err
	}
	if err := cluster.ValidateGatherV(s.cs, sizes, res.Results, false); err != nil {
		return SimResult{}, nil, fmt.Errorf("encag: %s produced an invalid %s: %w", used, noun, err)
	}
	return SimResult{
		Latency:    res.LatencyD,
		Metrics:    res.Critical,
		InterBytes: res.InterBytes,
		IntraBytes: res.IntraBytes,
		Algorithm:  used,
	}, res.PerRank, nil
}
