package encag

import "encag/internal/seal"

// CryptoPool is a bounded AES-GCM worker pool that any number of
// sessions can share. The performance-modeling literature on encrypted
// MPI (Naser et al.) identifies crypto throughput as the shared
// bottleneck of a multi-tenant host, so the pool — not each session —
// owns the crypto budget: hand one pool to every OpenSession via
// WithCryptoPool and total GCM parallelism stays capped at the pool
// size no matter how many tenants run collectives concurrently.
//
// A saturated pool never blocks: segmented seal/open callers always
// participate in their own work, degrading to serial execution when no
// worker is free (the Saturated counter in PoolStats counts those
// events). Close drains the workers; sessions still using a closed pool
// keep working, serially. Sessions never close an injected pool — its
// owner (a tenant host, a test) does.
type CryptoPool = seal.Pool

// CryptoPoolStats is a CryptoPool's utilization view (see
// CryptoPool.Stats).
type CryptoPoolStats = seal.PoolStats

// NewCryptoPool creates a crypto worker pool with the given worker cap;
// size <= 0 selects GOMAXPROCS.
func NewCryptoPool(size int) *CryptoPool { return seal.NewPool(size) }

// WithCryptoPool points the session's sealer at an externally owned
// crypto worker pool (session-level only; it survives Rekey). It is the
// one way to choose a session's pool: without it, or with nil, the
// session shares the process-wide pool sized by GOMAXPROCS. A host that
// opens one pool and hands it to every tenant session arbitrates one
// crypto budget process-wide.
func WithCryptoPool(p *CryptoPool) Option {
	return sessionLevel("WithCryptoPool", func(o *sessionOptions) { o.pool = p })
}
