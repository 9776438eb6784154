package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"encag/internal/block"
	"encag/internal/cost"
	"encag/internal/fault"
	"encag/internal/metrics"
	"encag/internal/seal"
)

// EngineKind selects the execution backend of a Session.
type EngineKind int

const (
	// EngineChan runs every rank as a goroutine with real payload bytes
	// and real AES-GCM; every pair is a memory pair.
	EngineChan EngineKind = iota
	// EngineTCP puts every inter-node pair on a real loopback TCP socket
	// through the wire codec; same-node pairs are memory pairs, as on
	// EngineChan. A session keeps its listeners, its P·(P−ℓ) dialed
	// connections, handshakes and sequence gates alive across
	// collectives, so only OpenSession pays the setup cost.
	EngineTCP
	// EngineSim runs on the deterministic discrete-event cluster model in
	// virtual time.
	EngineSim
)

func (k EngineKind) String() string {
	switch k {
	case EngineChan:
		return "chan"
	case EngineTCP:
		return "tcp"
	case EngineSim:
		return "sim"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// SessionConfig carries the session-scoped behaviors of OpenSession.
// Tracer and Plan act as defaults that an individual Op may override.
type SessionConfig struct {
	Engine EngineKind
	// Tracer receives the activity timeline of every collective run on
	// the session (wall-clock for chan/tcp, virtual time for sim). Must
	// be goroutine-safe.
	Tracer Tracer
	// Plan is the default fault-injection plan applied to every
	// collective; a fresh Injector is armed per operation so frame
	// counters restart each run and plans of concurrent operations stay
	// fully isolated from one another.
	Plan *fault.Plan
	// Profile is the machine model used by EngineSim; ignored otherwise.
	Profile cost.Profile
	// CryptoPool is the worker pool the session's sealer runs segmented
	// crypto on; nil selects the process-wide shared pool. Handing one
	// pool to many sessions is the multi-tenant wiring: they share one
	// crypto budget instead of each sizing its own. The pool survives
	// Rekey (every replacement sealer is pointed at it) and is never
	// closed by the session: its owner outlives every tenant.
	CryptoPool *seal.Pool
	// Pipelining turns on intra-collective pipelining on EngineTCP: a
	// message that is one freshly sealed chunk streams its sealed
	// segments onto the wire as they seal and opens them as they land,
	// overlapping crypto with transport inside one operation; every other
	// message travels whole. EngineChan and EngineSim ignore it.
	Pipelining bool
}

// Op describes one collective executed on an open Session. Exactly one
// of Sizes, Payloads or MsgSize determines the per-rank contribution
// lengths (Sizes wins, then Payloads, then uniform MsgSize).
type Op struct {
	Algo Algorithm
	// MsgSize is the uniform per-rank block length when Sizes and
	// Payloads are absent.
	MsgSize int64
	// Payloads supplies each rank's contribution bytes; nil uses the
	// deterministic test pattern. Ignored by EngineSim.
	Payloads [][]byte
	// Sizes gives explicit per-rank contribution lengths (all-gatherv).
	Sizes []int64
	// Plan overrides the session's fault plan for this operation only.
	Plan *fault.Plan
	// Tracer overrides the session's tracer for this operation only.
	Tracer Tracer
}

var (
	// ErrSessionClosed is returned by operations on a Close()d session.
	ErrSessionClosed = errors.New("cluster: session is closed")
	// ErrSessionBroken is returned once the session's transport mesh has
	// become unrecoverable (errors wrapping ErrMeshDown: organic send
	// retry exhaustion, listener death, or a sequence-gate desync caused
	// by wire-level corruption). Like an MPI communicator after a fatal
	// transport error, the session then refuses further operations; open
	// a fresh session to continue. Operation-level failures — context
	// cancellation, fault-plan outcomes, authentication rejections,
	// algorithm panics, receive timeouts — fail only their own
	// collective and leave the session usable.
	ErrSessionBroken = errors.New("cluster: session broken by an earlier failure")
)

// DefaultRecvTimeout bounds a single receive wait when Spec.RecvTimeout
// is zero: a rank stuck waiting for a message that will never arrive
// (lost to a fault, or a peer that died) surfaces a structured recv
// error instead of deadlocking until the run-level timeout.
const DefaultRecvTimeout = 30 * time.Second

// RealTimeout bounds one collective's wall-clock execution; a
// deadlocked algorithm surfaces as an error instead of a hung process.
var RealTimeout = 60 * time.Second

// RealResult is the outcome of one Collective.
type RealResult struct {
	Results  []block.Message // per-rank gathered result
	PerRank  []Metrics
	Critical Critical
	// Sniffer is the session-lifetime capture of the inter-node wire —
	// every byte of the P·(P−ℓ) inter-node sockets, cumulative over every
	// collective run on the session; nil on EngineChan, which has no wire.
	Sniffer *WireSniffer
	Elapsed time.Duration
	// OpID is the session-unique operation id the collective's frames
	// carried; ids start at 1, so 0 means "no id" (zero-valued result).
	OpID uint32
}

// RunOnce opens a session, runs the one operation on it and closes it
// again, re-paying the full setup (for EngineTCP the dialed sockets) on
// every call — for tests and one-off checks; anything that runs more
// than one collective should hold a Session.
func RunOnce(spec Spec, cfg SessionConfig, op Op) (*RealResult, error) {
	s, err := OpenSession(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Collective(context.Background(), op)
}

// SimOnce is RunOnce on the discrete-event model: one EngineSim session
// under prof, one Sim of op (op.Tracer traces it, op.Sizes makes it an
// all-gatherv), closed again.
func SimOnce(spec Spec, prof cost.Profile, op Op) (*SimResult, error) {
	s, err := OpenSession(spec, SessionConfig{Engine: EngineSim, Profile: prof})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Sim(context.Background(), op)
}

// Session is a persistent collective runtime: open once, run many
// collectives over long-lived engine state, close once. For EngineTCP
// the listeners, the P·(P−ℓ) dialed inter-node connections, hello
// handshakes, sequence gates and per-rank send schedulers survive
// across operations, and same-node pairs deliver in memory; every frame
// carries its operation's id, so the demux routes concurrent
// collectives' frames to the right operation and discards stragglers
// from completed or aborted ones. For EngineChan the per-rank send
// schedulers and sealer persist. EngineSim sessions hold the machine
// profile and run each collective in virtual time.
//
// A Session is safe for concurrent use, and collectives genuinely
// overlap: any number of Collective calls may be in flight at once over
// the same mesh (callers typically bound the number through the public
// nonblocking API's in-flight window). A failed or cancelled collective
// fails only itself; the session breaks (ErrSessionBroken) only when
// the transport mesh itself is unrecoverable.
type Session struct {
	spec   Spec
	cfg    SessionConfig
	recvTO time.Duration

	opSeq atomic.Uint32 // op-id allocator; ids start at 1
	lm    *liveMetrics
	pipe  bool // segment streaming on (cfg.Pipelining on EngineTCP)

	mu       sync.Mutex
	closed   bool
	broken   error
	inflight int
	slr      *seal.Sealer
	refs     map[*seal.Sealer]int // per sealer: ops in flight, +1 while current
	tr       *transport           // nil for EngineSim
	// sealedBase/openedBase accumulate the segment counts of retired
	// sealers whose last op has ended, keeping the session-lifetime totals
	// monotone across rekeys.
	sealedBase int64
	openedBase int64
}

// keyBudget is how many seals a session key may make before admit
// rotates it: well below the 2³² invocations SP 800-38D §8.3 allows per
// key. A variable so tests can force rotations.
var keyBudget uint64 = 1 << 31

// OpenSession validates the spec, stands up the persistent engine state
// (sealer and send schedulers for chan/tcp; for tcp also one listener
// per rank and one dialed connection per ordered inter-node pair,
// P·(P−ℓ) in all) and returns the ready session.
func OpenSession(spec Spec, cfg SessionConfig) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Session{spec: spec, cfg: cfg, recvTO: spec.RecvTimeout}
	if s.recvTO <= 0 {
		s.recvTO = DefaultRecvTimeout
	}
	s.lm = newLiveMetrics(metrics.NewRegistry(), spec, cfg.Engine)
	if cfg.Engine == EngineSim {
		return s, nil
	}
	slr, err := newSessionSealer(spec, cfg.CryptoPool)
	if err != nil {
		return nil, err
	}
	s.slr, s.refs = slr, map[*seal.Sealer]int{slr: 1}
	lnk, err := newLink(spec, s.lm, newOpRegistry(), cfg)
	if err != nil {
		return nil, err
	}
	s.pipe = cfg.Pipelining && cfg.Engine == EngineTCP
	s.tr = newTransport(lnk)
	s.registerRuntimeMetrics()
	return s, nil
}

func newSessionSealer(spec Spec, pool *seal.Pool) (*seal.Sealer, error) {
	slr, err := seal.NewRandomSealer()
	if err != nil {
		return nil, err
	}
	slr.SetSegmentSize(int(spec.SegmentSize))
	slr.SetPool(pool)
	return slr, nil
}

// Spec returns the session's world layout.
func (s *Session) Spec() Spec { return s.spec }

// Engine returns the session's execution backend.
func (s *Session) Engine() EngineKind { return s.cfg.Engine }

// Sniffer returns the session-lifetime wire capture of an EngineTCP
// session (cumulative across collectives), or nil for other engines.
func (s *Session) Sniffer() *WireSniffer {
	if s.tr == nil {
		return nil
	}
	return s.tr.sniff
}

// Sealer returns the session's current AES-GCM sealer (nil for
// EngineSim): the one the next collective is admitted with. A Rekey, or
// the automatic rotation at the key's seal budget, replaces it; ops
// already admitted keep sealing with theirs.
func (s *Session) Sealer() *seal.Sealer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slr
}

// Err returns the error that broke the session, or nil while it is
// healthy.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// InFlight returns how many collectives are currently running on the
// session.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Rekey replaces the session's AES-GCM key with a fresh random one. It
// never waits: operations admitted from now on seal under the new key,
// and operations already in flight finish on the key they were admitted
// with, so no operation is split across keys. The retired sealer's
// counts fold into the session totals when its last operation ends.
func (s *Session) Rekey() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrSessionClosed
	case s.broken != nil:
		return fmt.Errorf("%w: %v", ErrSessionBroken, s.broken)
	case s.cfg.Engine == EngineSim:
		return nil // the sim models crypto cost; there is no key
	}
	return s.rekeyLocked()
}

// rekeyLocked swaps in a fresh sealer; the caller holds s.mu.
func (s *Session) rekeyLocked() error {
	slr, err := newSessionSealer(s.spec, s.cfg.CryptoPool)
	if err != nil {
		return err
	}
	s.unrefLocked(s.slr)
	s.slr, s.refs[slr] = slr, 1
	s.lm.rekeys.Inc()
	return nil
}

// unrefLocked drops one reference to slr. The last one, taken when slr
// is retired and its last op has ended, folds its final counts into the
// session bases.
func (s *Session) unrefLocked(slr *seal.Sealer) {
	if s.refs[slr]--; s.refs[slr] == 0 {
		delete(s.refs, slr)
		sealed, opened := slr.Counts()
		s.sealedBase += sealed
		s.openedBase += opened
	}
}

// cryptoTotals returns the session-lifetime sealed/opened segment
// counts: the folded bases plus every sealer still referenced.
func (s *Session) cryptoTotals() (sealed, opened int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sealed, opened = s.sealedBase, s.openedBase
	for slr := range s.refs {
		ds, do := slr.Counts()
		sealed, opened = sealed+ds, opened+do
	}
	return sealed, opened
}

// Close tears down the persistent engine state: in-flight operations
// are aborted (their callers receive a structured error wrapping
// ErrSessionClosed), then the TCP mesh (listeners, links, readers) and
// the send schedulers are drained. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.tr != nil {
		s.tr.abortLive(ErrSessionClosed)
		s.tr.close()
	}
	return nil
}

// resolve turns an Op into per-rank sizes, checked against the
// caller's payloads when there are any.
func (op Op) resolve(spec Spec) (sizes []int64, err error) {
	if op.Algo == nil {
		return nil, errors.New("cluster: Op.Algo is nil")
	}
	if op.Payloads != nil && len(op.Payloads) != spec.P {
		return nil, fmt.Errorf("cluster: %d payloads for %d ranks", len(op.Payloads), spec.P)
	}
	sizes = make([]int64, spec.P)
	switch {
	case op.Sizes != nil:
		if len(op.Sizes) != spec.P {
			return nil, fmt.Errorf("cluster: %d sizes for %d ranks", len(op.Sizes), spec.P)
		}
		copy(sizes, op.Sizes)
	case op.Payloads != nil:
		for r := range sizes {
			sizes[r] = int64(len(op.Payloads[r]))
		}
	default:
		for r := range sizes {
			sizes[r] = op.MsgSize
		}
	}
	for r, sz := range sizes {
		if sz < 0 {
			return nil, fmt.Errorf("cluster: negative message size %d", sz)
		}
		if op.Payloads != nil && int64(len(op.Payloads[r])) != sz {
			return nil, fmt.Errorf("cluster: rank %d payload is %d bytes, want %d", r, len(op.Payloads[r]), sz)
		}
	}
	return sizes, nil
}

// inputs returns the caller's payloads, or else each rank's test
// pattern in a fresh buffer: gathered views alias the inputs, and they
// are the caller's.
func (op Op) inputs(sizes []int64) [][]byte {
	if op.Payloads != nil {
		return op.Payloads
	}
	payloads := make([][]byte, len(sizes))
	for r := range payloads {
		payloads[r] = block.PatternFill(r, sizes[r])
	}
	return payloads
}

// admit runs the session-state checks that gate a new collective,
// rotates the key once it has used its seal budget, and accounts the
// collective as in flight on the sealer it returns. The caller must
// release that sealer with release().
func (s *Session) admit(ctx context.Context) (*seal.Sealer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrSessionClosed
	case s.broken != nil:
		return nil, fmt.Errorf("%w: %v", ErrSessionBroken, s.broken)
	case s.cfg.Engine == EngineSim:
		return nil, errors.New("cluster: Collective needs a chan or tcp session; use Sim")
	}
	if merr := s.tr.brokenErr(); merr != nil {
		// The link died under an operation whose first-recorded root
		// cause predated the transport failure; surface it now.
		if s.broken == nil {
			s.broken = merr
			s.lm.poisonings.Inc()
		}
		return nil, fmt.Errorf("%w: %v", ErrSessionBroken, merr)
	}
	if ctx.Err() != nil {
		// Fail fast without touching the engine or the session state.
		return nil, &RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(ctx)}
	}
	// Ops in flight may take the key past its budget by their own seals;
	// their nonces stay unique because the counter keeps running.
	if s.slr.Invocations() >= keyBudget {
		if err := s.rekeyLocked(); err != nil {
			return nil, err
		}
	}
	s.inflight++
	s.refs[s.slr]++
	return s.slr, nil
}

func (s *Session) release(slr *seal.Sealer) {
	s.mu.Lock()
	s.inflight--
	s.unrefLocked(slr)
	s.mu.Unlock()
}

// noteFailure decides whether a failed collective poisons the session.
// Only transport-level unrecoverability does: an error wrapping
// ErrMeshDown, or wire-level damage the link finds in its own state
// afterwards (TCP: a sequence gate desynced by corruption, a
// frame-stream reader starved mid-frame by a corrupted length field).
// Everything else — cancellation, fault-plan outcomes, GCM rejections,
// panics, recv timeouts — is scoped to the operation, and the transport
// keeps serving its siblings.
func (s *Session) noteFailure(err error) {
	if !errors.Is(err, ErrMeshDown) {
		derr := s.tr.desynced()
		if derr == nil {
			return
		}
		err = fmt.Errorf("%w (and %v)", err, derr)
	}
	s.poison(err)
}

// poison breaks the session: err is what every later operation is
// refused with (wrapped in ErrSessionBroken) and what Err returns.
func (s *Session) poison(err error) {
	s.mu.Lock()
	if s.broken == nil {
		s.broken = err
		s.lm.poisonings.Inc()
	}
	s.mu.Unlock()
}

// Collective runs one all-gather-shaped operation on the session's
// persistent chan or tcp engine. Any number of Collective calls may be
// in flight concurrently: each gets a unique operation id carried in
// its frames, its own fault injector and tracer, and per-rank goroutines
// whose sends interleave fairly with sibling operations on the shared
// transport. The context cancels mid-collective: cancellation (and
// deadline expiry) records a RankError with Op "cancel", aborts this
// operation through the normal abort machinery and drains its ranks —
// the session and any sibling operations stay intact. Use Sim for
// EngineSim sessions.
func (s *Session) Collective(ctx context.Context, op Op) (*RealResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	slr, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer s.release(slr)
	s.lm.opsStarted.Inc()
	sizes, err := op.resolve(s.spec)
	if err != nil {
		s.lm.opsFailed.Inc()
		return nil, err
	}
	payloads := op.inputs(sizes)
	tracer := op.Tracer
	if tracer == nil {
		tracer = s.cfg.Tracer
	}
	plan := op.Plan
	if plan == nil {
		plan = s.cfg.Plan
	}
	// A unique id and a fresh injector per operation: frames demux by id,
	// plan frame counters restart each collective, and neither verdicts
	// nor delays can leak between concurrent (or successive) operations.
	id := s.opSeq.Add(1)
	inj := fault.NewInjector(plan)
	inj.SetObserver(s.lm.observeFault)

	run := s.tr.newOp(id, slr, inj, s.recvTO, tracer, s.pipe)
	defer s.tr.reg.deregister(id)

	res := &RealResult{
		Results: make([]block.Message, s.spec.P),
		PerRank: make([]Metrics, s.spec.P),
		Sniffer: s.tr.sniff,
	}
	var wg sync.WaitGroup
	start := time.Now()
	run.wt.epoch = start
	for r := 0; r < s.spec.P; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recoverRank(recover(), &run.fails, run.abort, r) }()
			p := &Proc{rank: r, spec: s.spec, met: &res.PerRank[r], eng: run, sizes: sizes}
			mine := block.NewPlain(r, payloads[r])
			res.Results[r] = op.Algo(p, mine)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Under this module's go 1.22 timer semantics an unstopped timer stays
	// in the heap until it fires, a full RealTimeout after the operation.
	deadline := time.NewTimer(RealTimeout)
	defer deadline.Stop()
	select {
	case <-done:
	case <-ctx.Done():
		run.fails.record(&RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(ctx)})
		run.abort()
		// Every blocking point (receives, barriers, send backoffs)
		// observes the abort, so the ranks unwind promptly; wait for them
		// instead of leaking goroutines into the caller's process.
		<-done
	case <-deadline.C:
		run.fails.record(&RankError{Rank: -1, Peer: -1, Op: "timeout",
			Err: fmt.Errorf("%v run exceeded %v (algorithm deadlock?) on %v", s.cfg.Engine, RealTimeout, s.spec)})
		run.abort()
		<-done
	}
	res.Elapsed = time.Since(start)
	err = run.fails.err()
	// The ranks are done; queued sends still hold the ciphertext until
	// the send loops have written or dropped them.
	run.bufs.finish(err == nil)
	if err != nil {
		s.noteFailure(err)
		var re *RankError
		if errors.As(err, &re) && re.Op == "cancel" {
			s.lm.opsCancelled.Inc()
		} else {
			s.lm.opsFailed.Inc()
		}
		return nil, err
	}
	if plan != nil {
		// A plan can corrupt a sequence field in a frame whose operation
		// still completes; every later frame of that pair would then be
		// dropped as a duplicate. Find it now, while the cause is known,
		// instead of letting the next operation starve for its whole
		// receive deadline. Unplanned operations have no injector to do
		// this and skip the check.
		if derr := s.tr.desynced(); derr != nil {
			s.poison(fmt.Errorf("%w: %v", ErrMeshDown, derr))
		}
	}
	s.lm.opsCompleted.Inc()
	s.lm.opLatency.Observe(res.Elapsed.Nanoseconds())
	res.OpID = id
	res.Critical = CriticalPath(res.PerRank)
	return res, nil
}

// Sim runs one collective on an EngineSim session's discrete-event
// model. The context is checked on entry only: a sim run executes in
// virtual time and is not cancellable mid-flight. Sim failures do not
// break the session — the model holds no cross-operation state.
func (s *Session) Sim(ctx context.Context, op Op) (*SimResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrSessionClosed
	case s.broken != nil:
		return nil, fmt.Errorf("%w: %v", ErrSessionBroken, s.broken)
	case s.cfg.Engine != EngineSim:
		return nil, errors.New("cluster: Sim needs an EngineSim session; use Collective")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, &RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(ctx)}
	}
	s.lm.opsStarted.Inc()
	sizes, err := op.resolve(s.spec)
	if err != nil {
		s.lm.opsFailed.Inc()
		return nil, err
	}
	// This builds P per-byte patterns the simulator never reads (128 × m
	// bytes at paper scale). Known, measured and left in on purpose:
	// dropping them is a 2.5× sim-paper gain that has to land in a PR of
	// its own, after the benchmark's longer slices (ROADMAP items 19(a)
	// and 1(d)).
	if op.Payloads == nil {
		payloads := make([][]byte, s.spec.P)
		for r := range payloads {
			payloads[r] = block.FillPattern(r, sizes[r])
		}
	}
	tracer := op.Tracer
	if tracer == nil {
		tracer = s.cfg.Tracer
	}
	res, err := runSim(s.spec, s.cfg.Profile, sizes, op.Algo, tracer)
	if err != nil {
		s.lm.opsFailed.Inc()
		return nil, err
	}
	s.lm.opsCompleted.Inc()
	return res, nil
}
