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
	// Profile is the machine model used by EngineSim, which OpenSession
	// validates; ignored otherwise.
	Profile cost.Profile
	// CryptoPool is the worker pool the session's sealer runs segmented
	// crypto on; nil selects the process-wide shared pool. Handing one
	// pool to many sessions is the multi-tenant wiring: they share one
	// crypto budget instead of each sizing its own. The pool survives
	// Rekey (every replacement sealer is pointed at it) and is never
	// closed by the session: its owner outlives every tenant.
	CryptoPool *seal.Pool
	// Pipelining turns on intra-collective pipelining on EngineTCP: a
	// chunk Proc.SealIsend seals for its one send to another node streams
	// its sealed segments onto the wire as they seal and opens them as
	// they land, overlapping crypto with transport inside one operation;
	// every other message travels whole. EngineChan and EngineSim ignore
	// it.
	Pipelining bool
	// MaxInFlight is the in-flight window: at most this many collectives
	// run at once, each on one of as many rank slots (P goroutines each),
	// and one beyond it waits. <= 0 selects DefaultMaxInFlight.
	MaxInFlight int
}

// DefaultMaxInFlight is the window when MaxInFlight is unset.
const DefaultMaxInFlight = 4

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
// error instead of deadlocking; a whole operation is capped by its context.
const DefaultRecvTimeout = 30 * time.Second

// RealResult is the outcome of one Collective. Its Results' chunk and
// block lists are the result's own (see Proc.Assemble), not a rank's.
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
// overlap over the same mesh, up to the session's in-flight window: its
// pool of rank slots, which Collective and Start alike wait for. A
// failed or cancelled collective fails only itself; the session breaks
// (ErrSessionBroken) only when the transport mesh itself is
// unrecoverable.
type Session struct {
	spec  Spec
	cfg   SessionConfig
	slots *slotPool // the in-flight window; never taken on EngineSim

	opSeq atomic.Uint32 // op-id allocator; ids start at 1
	lm    *liveMetrics
	pipe  bool // segment streaming on (cfg.Pipelining on EngineTCP)

	// tally counts the segments every sealer of the session sealed and
	// opened, rekeyed ones included: the session-lifetime totals.
	tally seal.Tally

	mu     sync.Mutex
	closed bool
	broken error
	slr    *seal.Sealer
	tr     *transport // nil for EngineSim
}

// keyBudget is how many seals a session key may make before admit
// rotates it: well below the 2³² invocations SP 800-38D §8.3 allows per
// key. A variable so tests can force rotations.
var keyBudget uint64 = 1 << 31

// OpenSession validates the spec (and, for EngineSim, the profile),
// stands up the persistent engine state (sealer and send schedulers for
// chan/tcp; for tcp also one listener per rank and one dialed connection
// per ordered inter-node pair, P·(P−ℓ) in all) and returns the ready
// session.
func OpenSession(spec Spec, cfg SessionConfig) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == EngineSim {
		if err := cfg.Profile.Validate(); err != nil {
			return nil, err
		}
	}
	if spec.RecvTimeout == 0 {
		spec.RecvTimeout = DefaultRecvTimeout
	}
	s := &Session{spec: spec, cfg: cfg}
	window := cfg.MaxInFlight
	if window <= 0 {
		window = DefaultMaxInFlight
	}
	s.slots = newSlotPool(spec, window)
	s.lm = newLiveMetrics(metrics.NewRegistry(), spec, cfg.Engine)
	if cfg.Engine != EngineSim {
		slr, err := s.newSealer()
		if err != nil {
			return nil, err
		}
		lnk, err := newLink(spec, s.lm, newOpRegistry(), cfg)
		if err != nil {
			return nil, err
		}
		s.slr = slr
		s.pipe = cfg.Pipelining && cfg.Engine == EngineTCP
		s.tr = newTransport(lnk)
	}
	s.registerRuntimeMetrics()
	return s, nil
}

// newSealer makes a sealer under a fresh random key that counts into
// the session's tally.
func (s *Session) newSealer() (*seal.Sealer, error) {
	slr, err := seal.NewRandomSealer()
	if err != nil {
		return nil, err
	}
	slr.SetSegmentSize(int(s.spec.SegmentSize))
	slr.SetPool(s.cfg.CryptoPool)
	slr.SetTally(&s.tally)
	return slr, nil
}

// Spec returns the session's world layout, with RecvTimeout resolved:
// DefaultRecvTimeout where the caller left it zero.
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

// MaxInFlight returns the session's in-flight window: how many rank
// slots it runs collectives on at once.
func (s *Session) MaxInFlight() int { return cap(s.slots.tokens) }

// InFlight returns how many of the window's rank slots are taken: by a
// running collective, or by one whose last queued sends have not yet
// been written. Always 0 on EngineSim.
func (s *Session) InFlight() int { return len(s.slots.tokens) }

// WindowWaits returns how many collectives found every rank slot taken
// and waited for one.
func (s *Session) WindowWaits() int64 { return s.slots.waits.Load() }

// AwaitIdle blocks until no rank slot is taken, or ctx ends (returning
// its cause). A collective that starts while it waits is waited for too.
func (s *Session) AwaitIdle(ctx context.Context) error { return s.slots.awaitIdle(ctx) }

// Rekey replaces the session's AES-GCM key with a fresh random one. It
// never waits: operations admitted from now on seal under the new key,
// and operations already in flight finish on the key they were admitted
// with, so no operation is split across keys. Every sealer counts into
// the session's one tally, so the totals span every key.
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
	slr, err := s.newSealer()
	if err != nil {
		return err
	}
	s.slr = slr
	s.lm.rekeys.Inc()
	return nil
}

// Close tears down the persistent engine state: in-flight operations
// are aborted and callers waiting for a rank slot are woken (both
// receive an error wrapping ErrSessionClosed), then the TCP mesh
// (listeners, links, readers) and the send schedulers are drained.
// Idempotent.
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
	s.slots.close()
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
// are the caller's. A pattern larger than one seal segment is filled as
// one task on pool, in which the caller takes part; smaller ones, and
// all of them when pool is nil, are filled inline.
func (op Op) inputs(sizes []int64, pool *seal.Pool) [][]byte {
	if op.Payloads != nil {
		return op.Payloads
	}
	payloads := make([][]byte, len(sizes))
	f := patternFills.Get()
	for r, sz := range sizes {
		if pool != nil && sz > seal.DefaultSegmentSize {
			f.ranks = append(f.ranks, r)
		} else {
			payloads[r] = block.PatternFill(r, sz)
		}
	}
	if len(f.ranks) > 0 {
		f.payloads, f.sizes = payloads, sizes
		pool.Run(len(f.ranks), f.task)
	}
	f.payloads, f.sizes, f.ranks = nil, nil, f.ranks[:0]
	patternFills.Put(f)
	return payloads
}

// patternFill is one inputs call's pool state, recycled through
// patternFills with its task method bound once, so handing the fills to
// the pool allocates nothing.
type patternFill struct {
	payloads [][]byte
	sizes    []int64
	ranks    []int // the ranks whose patterns the pool fills
	task     func(int)
}

var patternFills = seal.NewRecycler(func() *patternFill {
	f := new(patternFill)
	f.task = f.fill
	return f
})

func (f *patternFill) fill(i int) {
	r := f.ranks[i]
	f.payloads[r] = block.PatternFill(r, f.sizes[r])
}

// admit gates a new collective: it checks the session's state, waits
// outside s.mu for a rank slot (Close takes s.mu), checks again, rotates
// the key once it has used its seal budget, and returns the sealer the
// collective seals with. A caller whose ctx ends while it waits gets
// the "cancel" RankError a cancelled ctx gets at once. The caller
// releases the slot through its op.
func (s *Session) admit(ctx context.Context) (*seal.Sealer, *rankSlot, error) {
	if err := s.refusal(ctx, false); err != nil {
		return nil, nil, err
	}
	slot, err := s.slots.take(ctx)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err = s.refusalLocked(ctx, false)
	// Ops in flight may take the key past its budget by their own seals;
	// their nonces stay unique because the counter keeps running.
	if err == nil && s.slr.Invocations() >= keyBudget {
		err = s.rekeyLocked()
	}
	if err != nil {
		s.slots.put(slot)
		return nil, nil, err
	}
	return s.slr, slot, nil
}

// refusal is why the session refuses a new collective now, nil if it
// does not; sim says whether the caller is Sim.
func (s *Session) refusal(ctx context.Context, sim bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refusalLocked(ctx, sim)
}

func (s *Session) refusalLocked(ctx context.Context, sim bool) error {
	switch {
	case s.closed:
		return ErrSessionClosed
	case s.broken != nil:
		return fmt.Errorf("%w: %v", ErrSessionBroken, s.broken)
	case sim && s.cfg.Engine != EngineSim:
		return errors.New("cluster: Sim needs an EngineSim session; use Collective")
	case !sim && s.cfg.Engine == EngineSim:
		return errors.New("cluster: Collective needs a chan or tcp session; use Sim")
	case s.tr != nil && s.tr.brokenErr() != nil:
		// The link died under an operation whose first-recorded root
		// cause predated the transport failure; surface it now.
		s.broken = s.tr.brokenErr()
		s.lm.poisonings.Inc()
		return fmt.Errorf("%w: %v", ErrSessionBroken, s.broken)
	case ctx.Err() != nil:
		// Fail fast without touching the engine or the session state.
		return &RankError{Rank: -1, Peer: -1, Op: "cancel", Err: context.Cause(ctx)}
	}
	return nil
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
// in flight concurrently, up to the window (beyond it a call waits for
// a rank slot): each gets a unique operation id carried in its frames,
// its own fault injector and tracer, and a rank slot whose goroutines'
// sends interleave fairly with sibling operations on the shared
// transport. The context cancels mid-collective: cancellation (and
// deadline expiry) records a RankError with Op "cancel", aborts this
// operation through the normal abort machinery and drains its ranks —
// the session and any sibling operations stay intact. Use Sim for
// EngineSim sessions.
func (s *Session) Collective(ctx context.Context, op Op) (*RealResult, error) {
	o, err := s.begin(ctx, op, nil)
	if err != nil {
		return nil, err
	}
	<-o.finished
	return s.end(o)
}

// Start runs op as Collective does but returns once its ranks run,
// starting no goroutine: the worker of the last rank to return ends the
// op and hands then what Collective would have returned, before the
// op's slot goes back to the window, so then must not wait for a slot.
// If Start fails, the op never ran and then is not called.
func (s *Session) Start(ctx context.Context, op Op, then func(*RealResult, error)) error {
	_, err := s.begin(ctx, op, then)
	return err
}

// begin admits op, builds its inputs on the caller and hands its ranks
// to the rank slot it was admitted with.
func (s *Session) begin(ctx context.Context, op Op, then func(*RealResult, error)) (*opRuntime, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	slr, slot, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	s.lm.opsStarted.Inc()
	sizes, err := op.resolve(s.spec)
	if err != nil {
		s.slots.put(slot)
		s.lm.opsFailed.Inc()
		return nil, err
	}
	payloads := op.inputs(sizes, slr.Pool())
	tracer, plan := op.Tracer, op.Plan
	if tracer == nil {
		tracer = s.cfg.Tracer
	}
	if plan == nil {
		plan = s.cfg.Plan
	}
	// A unique id and a fresh injector per operation: frames demux by id,
	// plan frame counters restart each collective, and neither verdicts
	// nor delays can leak between concurrent (or successive) operations.
	id := s.opSeq.Add(1)
	inj := fault.NewInjector(plan)
	inj.SetObserver(s.lm.observeFault)

	o := s.tr.newOp(ctx, slot, id, slr, inj, tracer, s.pipe)
	o.algo, o.payloads, o.sizes, o.out = op.Algo, payloads, sizes, newResults(sizes)
	o.sess, o.then = s, then
	o.res = &RealResult{
		Results: make([]block.Message, s.spec.P),
		PerRank: make([]Metrics, s.spec.P),
		Sniffer: s.tr.sniff,
	}
	o.wt.epoch = time.Now()
	slot.start()
	return o, nil
}

// end is the one ending of a collective whose ranks have all returned,
// run by its blocking caller or, for a started op, by the worker of its
// last rank. It settles the outcome, hands it to then, if any, and only
// then drops the op's own reference on its slot.
func (s *Session) end(o *opRuntime) (*RealResult, error) {
	// Queued send jobs still reach o until the send loops release them:
	// drop what is the caller's now.
	res, then := o.res, o.then
	o.res, o.out, o.payloads, o.then = nil, results{}, nil, nil
	res.Elapsed = time.Since(o.wt.epoch)
	s.tr.reg.deregister(o.id)
	err := o.fails.err()
	if err != nil {
		s.noteFailure(err)
		var re *RankError
		if errors.As(err, &re) && re.Op == "cancel" {
			s.lm.opsCancelled.Inc()
		} else {
			s.lm.opsFailed.Inc()
		}
		res = nil
	} else {
		if o.inj != nil {
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
		res.OpID = o.id
		res.Critical = CriticalPath(res.PerRank)
	}
	if then != nil {
		then(res, err)
	}
	// The ranks are done and the op is deregistered; queued sends and a
	// socket reader still decoding a frame of the op hold the
	// ciphertext, and the slot, until they are done with it.
	o.finish(err == nil)
	return res, err
}

// Sim runs one collective on an EngineSim session's discrete-event
// model. The context is checked on entry only: a sim run executes in
// virtual time and is not cancellable mid-flight. Sim failures do not
// break the session — the model holds no cross-operation state.
func (s *Session) Sim(ctx context.Context, op Op) (*SimResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The lock covers the checks only: Snapshot, Close and other Sims
	// must not wait out a simulation (tens of ms at paper scale).
	if err := s.refusal(ctx, true); err != nil {
		return nil, err
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
	res, err := runSim(s.spec, s.slots.lay, s.cfg.Profile, sizes, op.Algo, tracer)
	if err != nil {
		s.lm.opsFailed.Inc()
		return nil, err
	}
	s.lm.opsCompleted.Inc()
	return res, nil
}
