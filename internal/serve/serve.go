// Package serve is the multi-tenant collective host: one process
// running many concurrent encag.Sessions (tenants) over shared
// resources, the deployment shape of CryptMPI's motivating scenario —
// security-sensitive tenants sharing infrastructure — and of a
// federated secure-aggregation service fronting thousands of clients.
//
// The Manager arbitrates three shared budgets:
//
//   - Crypto: every tenant session seals and opens on one process-global
//     CryptoPool (injected via WithCryptoPool), so total AES-GCM
//     parallelism stays capped at the pool size no matter how many
//     meshes are resident. Performance modeling of encrypted MPI (Naser
//     et al.) shows crypto throughput is the shared bottleneck; the pool
//     is where that budget lives.
//
//   - Memory/descriptors: at most Capacity tenant sessions are resident
//     at once. Opening a tenant past the cap evicts the least-recently
//     used idle session; idle sessions are additionally reaped after
//     IdleTTL by the background janitor, which also rotates long-lived
//     tenants' AES keys every RekeyEvery.
//
//   - Concurrency: at most MaxSteps collectives execute at once across
//     all tenants. Beyond that, up to MaxQueue callers wait (bounded by
//     QueueTimeout); everything else is rejected fail-fast with a
//     structured *RejectionError — saturation produces backpressure,
//     never a hang.
//
// Fault isolation is strict per tenant: a tenant whose mesh is poisoned
// (wire-level unrecoverability, ErrSessionBroken) or whose step was
// context-cancelled is reaped — its session closed and forgotten — and
// readmitted fresh on its next step. Sibling tenants never observe any
// of it; their collectives stay byte-exact.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"encag"
	"encag/internal/metrics"
	"encag/internal/seal"
)

// Reap reasons, used as the reason label of encag_serve_reaps_total and
// as Snapshot map keys.
const (
	ReapIdle      = "idle"      // janitor: idle past IdleTTL
	ReapLRU       = "lru"       // evicted to admit another tenant at capacity
	ReapPoisoned  = "poisoned"  // session broken (wire-level unrecoverability)
	ReapCancelled = "cancelled" // step context cancelled mid-collective
	ReapEvicted   = "evicted"   // explicit Evict call
	ReapShutdown  = "shutdown"  // Manager.Close
)

var reapReasons = []string{ReapIdle, ReapLRU, ReapPoisoned, ReapCancelled, ReapEvicted, ReapShutdown}

// Config sizes a Manager. The zero value is usable: a 4-rank/2-node
// chan-engine default tenant spec, a manager-owned GOMAXPROCS crypto
// pool, unlimited capacity, no idle reaping or background rekey, and an
// admission window derived from the pool size.
type Config struct {
	// Spec is the default tenant layout; tenants registered explicitly
	// (Register) may override it. Zero Procs selects 4 ranks over 2
	// nodes.
	Spec encag.Spec
	// SessionOptions are applied to every tenant session (engine,
	// pipelining, tracing...). The manager appends its shared
	// WithCryptoPool last, so a pool option here is overridden.
	SessionOptions []encag.Option

	// Capacity bounds resident sessions; opening one more evicts the
	// LRU idle tenant, and if every resident tenant is busy the open is
	// rejected (reason "capacity"). 0 means unlimited.
	Capacity int
	// IdleTTL reaps sessions idle this long (0 disables idle reaping).
	IdleTTL time.Duration
	// RekeyEvery rotates each resident tenant's AES-GCM key in the
	// background once the tenant has been keyed this long, busy or not:
	// steps in flight finish on their old key (0 disables).
	RekeyEvery time.Duration
	// SweepEvery is the janitor period (default 250ms; only runs when
	// IdleTTL or RekeyEvery is set).
	SweepEvery time.Duration

	// MaxSteps bounds concurrently executing collectives across all
	// tenants — the in-flight window tied to the crypto budget. 0
	// derives 2*pool size (min 4).
	MaxSteps int
	// MaxQueue bounds callers waiting for a step slot; one more is
	// rejected immediately (reason "queue_full"). 0 derives 4*MaxSteps.
	MaxQueue int
	// QueueTimeout bounds the wait for a step slot (reason
	// "queue_timeout"; default 2s).
	QueueTimeout time.Duration

	// Pool is the shared crypto worker pool. Nil makes the manager own
	// a GOMAXPROCS-sized pool, closed with the manager; an injected
	// pool belongs to the caller and is left open.
	Pool *seal.Pool
}

// Manager hosts many tenant sessions in one process. All methods are
// safe for concurrent use.
type Manager struct {
	cfg      Config
	pool     *seal.Pool
	ownsPool bool
	adm      *admission
	reg      *metrics.Registry
	lm       *hostMetrics

	mu       sync.Mutex
	cond     sync.Cond // broadcast when an opening tenant settles
	tenants  map[string]*tenant
	resident int
	closed   bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// tenant is one tenant's slot: its layout, its resident session (nil
// when reaped or not yet admitted) and its usage clock. Guarded by the
// manager mutex.
type tenant struct {
	id   string
	spec encag.Spec
	opts []encag.Option

	sess      *encag.Session
	opening   bool
	refs      int // steps currently using sess
	lastUsed  time.Time
	lastRekey time.Time

	steps    *metrics.Counter
	failures *metrics.Counter
	opened   *metrics.Counter
	latency  *metrics.Histogram
}

// Open stands the host up (no tenant sessions yet; they are admitted
// lazily on first use or via Register+Warm).
func Open(cfg Config) (*Manager, error) {
	if cfg.Spec.Procs == 0 {
		cfg.Spec = encag.Spec{Procs: 4, Nodes: 2}
	}
	pool := cfg.Pool
	owns := false
	if pool == nil {
		pool = seal.NewPool(0)
		owns = true
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 2 * pool.Size()
		if cfg.MaxSteps < 4 {
			cfg.MaxSteps = 4
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxSteps
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 250 * time.Millisecond
	}
	m := &Manager{
		cfg:      cfg,
		pool:     pool,
		ownsPool: owns,
		reg:      metrics.NewRegistry(),
		tenants:  make(map[string]*tenant),
	}
	m.cond.L = &m.mu
	m.adm = newAdmission(cfg.MaxSteps, cfg.MaxQueue, cfg.QueueTimeout)
	m.lm = newHostMetrics(m)
	if cfg.IdleTTL > 0 || cfg.RekeyEvery > 0 {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		go m.janitor()
	}
	return m, nil
}

// Pool returns the shared crypto pool every tenant seals on.
func (m *Manager) Pool() *seal.Pool { return m.pool }

// Registry returns the manager's own metric families (admission, reaps,
// per-tenant step counters). Tenant session families are merged into
// the exposition by WriteMetrics.
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Register declares a tenant with its own layout and session options
// before first use. Steps for unknown tenants auto-register with the
// manager's default spec. Re-registering an existing tenant only
// updates the layout used for its *next* session (a resident session
// keeps its current one).
func (m *Manager) Register(id string, spec encag.Spec, opts ...encag.Option) error {
	if id == "" {
		return errors.New("serve: empty tenant id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	tn := m.tenants[id]
	if tn == nil {
		tn = m.newTenantLocked(id)
	}
	tn.spec = spec
	tn.opts = opts
	return nil
}

// newTenantLocked creates the tenant record and resolves its metric
// handles. Caller holds m.mu.
func (m *Manager) newTenantLocked(id string) *tenant {
	tn := &tenant{
		id:       id,
		spec:     m.cfg.Spec,
		steps:    m.reg.Counter(MetricTenantSteps, "Steps executed, by tenant.", metrics.L("tenant", id)),
		failures: m.reg.Counter(MetricTenantFailures, "Steps that returned an error, by tenant.", metrics.L("tenant", id)),
		opened:   m.reg.Counter(MetricTenantSessions, "Sessions opened, by tenant.", metrics.L("tenant", id)),
		latency:  m.reg.Histogram(MetricTenantLatency, "Step wall-clock latency in nanoseconds, by tenant.", metrics.L("tenant", id)),
	}
	m.tenants[id] = tn
	return tn
}

// sessionOpts assembles a tenant's OpenSession options: its own, then
// the shared crypto pool (last, so it wins).
func (m *Manager) sessionOpts(tn *tenant) []encag.Option {
	opts := make([]encag.Option, 0, len(m.cfg.SessionOptions)+len(tn.opts)+1)
	opts = append(opts, m.cfg.SessionOptions...)
	opts = append(opts, tn.opts...)
	return append(opts, encag.WithCryptoPool(m.pool))
}

// Do runs one step — an arbitrary sequence of collectives — on the
// tenant's session, admitting the tenant (opening or reusing its
// session) and holding one of the manager's step slots throughout. The
// session passed to step is valid only for the call. Saturation
// returns a *RejectionError rather than queueing unboundedly; a broken
// or cancelled tenant mesh is reaped afterwards, to be readmitted fresh
// on the tenant's next step.
func (m *Manager) Do(ctx context.Context, id string, step func(*encag.Session) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if rej := m.adm.acquire(ctx, id); rej != nil {
		m.lm.rejected(rej.Reason)
		return rej
	}
	defer m.adm.release()
	tn, sess, err := m.lease(ctx, id)
	if err != nil {
		if rej := (*RejectionError)(nil); errors.As(err, &rej) {
			m.lm.rejected(rej.Reason)
		}
		return err
	}
	start := time.Now()
	err = step(sess)
	tn.latency.Observe(time.Since(start).Nanoseconds())
	tn.steps.Inc()
	if err != nil {
		tn.failures.Inc()
	}
	m.unlease(tn, sess, err)
	return err
}

// Step runs one encrypted all-gather with deterministic payloads of
// size bytes on the tenant's session. opts are per-operation options
// (WithFaultPlan, WithTracer).
func (m *Manager) Step(ctx context.Context, id string, alg encag.Alg, size int64, opts ...encag.Option) (*encag.RunResult, error) {
	var res *encag.RunResult
	err := m.Do(ctx, id, func(s *encag.Session) error {
		r, rerr := s.Run(ctx, alg, size, opts...)
		res = r
		return rerr
	})
	return res, err
}

// Allgather runs one all-gather with caller-supplied contributions on
// the tenant's session.
func (m *Manager) Allgather(ctx context.Context, id string, alg encag.Alg, data [][]byte, opts ...encag.Option) (*encag.RunResult, error) {
	var res *encag.RunResult
	err := m.Do(ctx, id, func(s *encag.Session) error {
		r, rerr := s.Allgather(ctx, alg, data, opts...)
		res = r
		return rerr
	})
	return res, err
}

// Allreduce runs one encrypted all-reduce on the tenant's session.
func (m *Manager) Allreduce(ctx context.Context, id string, data [][]byte, combine encag.CombineFunc, opts ...encag.Option) (*encag.ReduceResult, error) {
	var res *encag.ReduceResult
	err := m.Do(ctx, id, func(s *encag.Session) error {
		r, rerr := s.Allreduce(ctx, data, combine, opts...)
		res = r
		return rerr
	})
	return res, err
}

// Warm admits the tenant now (opening its session) without running a
// collective — hosts use it to pre-dial the meshes at startup.
func (m *Manager) Warm(ctx context.Context, id string) error {
	return m.Do(ctx, id, func(*encag.Session) error { return nil })
}

// lease pins the tenant's session for one step, admitting (opening) it
// if it is not resident. Capacity pressure evicts the LRU idle tenant;
// if every resident session is busy the lease is rejected with reason
// "capacity".
func (m *Manager) lease(ctx context.Context, id string) (*tenant, *encag.Session, error) {
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return nil, nil, ErrClosed
		}
		tn := m.tenants[id]
		if tn == nil {
			tn = m.newTenantLocked(id)
		}
		if tn.sess != nil {
			tn.refs++
			tn.lastUsed = time.Now()
			s := tn.sess
			m.mu.Unlock()
			return tn, s, nil
		}
		if tn.opening {
			// Another step is dialing this tenant's mesh; wait for it.
			m.cond.Wait()
			continue
		}
		var victim *encag.Session
		if m.cfg.Capacity > 0 && m.resident >= m.cfg.Capacity {
			victim = m.evictLRULocked()
			if victim == nil {
				m.mu.Unlock()
				rej := &RejectionError{Tenant: id, Reason: "capacity",
					InFlight: m.resident, Queued: int(m.adm.queueDepth())}
				return nil, nil, rej
			}
		}
		tn.opening = true
		m.resident++
		m.mu.Unlock()
		if victim != nil {
			victim.Close()
		}
		s, err := encag.OpenSession(ctx, tn.spec, m.sessionOpts(tn)...)
		m.mu.Lock()
		tn.opening = false
		if err != nil {
			m.resident--
			m.cond.Broadcast()
			m.mu.Unlock()
			return nil, nil, fmt.Errorf("serve: tenant %s: %w", id, err)
		}
		now := time.Now()
		tn.sess = s
		tn.refs = 1
		tn.lastUsed, tn.lastRekey = now, now
		tn.opened.Inc()
		m.cond.Broadcast()
		m.mu.Unlock()
		return tn, s, nil
	}
}

// unlease releases the step's pin and applies the fault-isolation
// policy: a poisoned (broken) or context-cancelled tenant mesh is
// reaped, leaving the tenant to be readmitted fresh next step.
func (m *Manager) unlease(tn *tenant, s *encag.Session, stepErr error) {
	reason := ""
	switch {
	case s.Err() != nil || errors.Is(stepErr, encag.ErrSessionBroken):
		reason = ReapPoisoned
	case isCancel(stepErr):
		reason = ReapCancelled
	}
	m.mu.Lock()
	tn.refs--
	tn.lastUsed = time.Now()
	var victim *encag.Session
	if reason != "" && tn.sess == s {
		victim = m.detachLocked(tn, reason)
	}
	m.mu.Unlock()
	if victim != nil {
		victim.Close()
	}
}

// detachLocked takes a resident tenant's session out of residency and
// counts the reap in the same critical section, so no observer sees the
// tenant gone and the reap missing. The caller closes the returned
// session outside the lock.
func (m *Manager) detachLocked(tn *tenant, reason string) *encag.Session {
	s := tn.sess
	tn.sess = nil
	m.resident--
	m.lm.reaped(reason)
	return s
}

// isCancel reports whether a step failed because its context was
// cancelled mid-collective.
func isCancel(err error) bool {
	var re *encag.RankError
	return errors.As(err, &re) && re.Op == "cancel"
}

// evictLRULocked picks the least-recently-used resident tenant with no
// step in flight, detaches its session (reason "lru") and returns it for
// the caller to close outside the lock. Nil when every resident tenant
// is busy.
func (m *Manager) evictLRULocked() *encag.Session {
	var lru *tenant
	for _, tn := range m.tenants {
		if tn.sess == nil || tn.refs > 0 || tn.opening {
			continue
		}
		if lru == nil || tn.lastUsed.Before(lru.lastUsed) {
			lru = tn
		}
	}
	if lru == nil {
		return nil
	}
	return m.detachLocked(lru, ReapLRU)
}

// Evict closes the tenant's resident session now (reason "evicted");
// the tenant readmits on its next step. Reports whether a session was
// resident.
func (m *Manager) Evict(id string) bool {
	m.mu.Lock()
	tn := m.tenants[id]
	var victim *encag.Session
	if tn != nil && tn.sess != nil {
		victim = m.detachLocked(tn, ReapEvicted)
	}
	m.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.Close()
	return true
}

// janitor is the background sweep: idle reaping and scheduled rekey.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	t := time.NewTicker(m.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.sweep(time.Now())
		}
	}
}

// sweep applies one janitor pass at the given instant.
func (m *Manager) sweep(now time.Time) {
	var idle []*encag.Session
	m.mu.Lock()
	for _, tn := range m.tenants {
		if tn.sess == nil || tn.opening {
			continue
		}
		if tn.refs == 0 && m.cfg.IdleTTL > 0 && now.Sub(tn.lastUsed) >= m.cfg.IdleTTL {
			idle = append(idle, m.detachLocked(tn, ReapIdle))
			continue
		}
		if m.cfg.RekeyEvery > 0 && now.Sub(tn.lastRekey) >= m.cfg.RekeyEvery {
			// Busy tenants rotate too: Rekey never waits, and steps in
			// flight finish on the key they were admitted with.
			if err := tn.sess.Rekey(); err == nil {
				tn.lastRekey = now
				m.lm.rekeys.Inc()
			}
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		s.Close()
	}
}

// Close shuts the host down: the janitor stops, every resident session
// closes (reason "shutdown"), and the manager-owned crypto pool drains.
// Idempotent; always returns nil.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var victims []*encag.Session
	for _, tn := range m.tenants {
		if tn.sess != nil {
			victims = append(victims, m.detachLocked(tn, ReapShutdown))
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.janitorStop != nil {
		close(m.janitorStop)
		<-m.janitorDone
	}
	for _, s := range victims {
		s.Close()
	}
	if m.ownsPool {
		m.pool.Close()
	}
	return nil
}

// Resident returns how many tenant sessions are currently open.
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}

// Tenants returns the known tenant ids, sorted.
func (m *Manager) Tenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.tenants))
	for id := range m.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// WriteMetrics writes one merged Prometheus exposition: the manager's
// own families plus every resident tenant session's families, the
// latter carrying a tenant="<id>" label — the whole host in one scrape.
func (m *Manager) WriteMetrics(w io.Writer) error {
	sources := []metrics.Source{{Reg: m.reg}}
	m.mu.Lock()
	ids := make([]string, 0, len(m.tenants))
	for id, tn := range m.tenants {
		if tn.sess != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		sources = append(sources, metrics.Source{
			Reg:    m.tenants[id].sess.Metrics(),
			Labels: []metrics.Label{metrics.L("tenant", id)},
		})
	}
	m.mu.Unlock()
	return metrics.WriteMergedPrometheus(w, sources...)
}
