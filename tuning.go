package encag

import (
	"fmt"
	"os"
	"time"

	"encag/internal/cluster"
	"encag/internal/metrics"
	"encag/internal/tune"
)

// TuningTable is the measured selection policy behind AlgAuto: a
// versioned table of per-algorithm latency estimates keyed on
// (size-bucket, p, N, engine, pipelining), produced by an offline sweep
// (encag tune). Load one with LoadTuningTable and attach it with
// WithTuningTable; without one, AlgAuto uses the paper-calibrated byte
// thresholds.
type TuningTable = tune.Table

// TuningTableEnv names the environment variable OpenSession consults
// when no WithTuningTable option is given: if set, it must point at a
// JSON tuning table, which is loaded for the session (a load failure
// fails OpenSession — a deployment that configures a table does not
// want it silently ignored).
const TuningTableEnv = "ENCAG_TUNING_TABLE"

// LoadTuningTable reads and validates a JSON tuning table from disk.
func LoadTuningTable(path string) (*TuningTable, error) {
	return tune.Load(path)
}

// WithTuningTable attaches a measured tuning table to the session
// (session-level only): AlgAuto operations select the lowest-latency
// algorithm the table records for their (size-bucket, p, N, engine,
// pipelining) cell, falling back to the nearest same-engine cell and
// then to the built-in thresholds. Pass nil to force built-ins even
// when ENCAG_TUNING_TABLE is set.
func WithTuningTable(t *TuningTable) Option {
	return sessionLevel("WithTuningTable", func(o *sessionOptions) { o.tuning, o.tuningSet = t, true })
}

// WithTuningRefinement toggles online refinement of AlgAuto estimates
// (session-level only; default on): each successful real-engine
// collective folds its wall-clock latency into an EWMA for its (cell,
// algorithm), and once an algorithm has enough of the session's own
// samples its EWMA supersedes the table's swept number — so a
// long-lived session converges away from a stale table. Operations run
// under a fault plan are never folded in (their latency measures the
// faults, not the algorithm).
func WithTuningRefinement(on bool) Option {
	return sessionLevel("WithTuningRefinement", func(o *sessionOptions) { o.refine, o.refineSet = on, true })
}

// sessionTuning resolves the session's tuning table: the explicit
// option wins (even explicit nil), else ENCAG_TUNING_TABLE.
func sessionTuning(o *sessionOptions) (*tune.Table, error) {
	if o.tuningSet {
		return o.tuning, nil
	}
	path := os.Getenv(TuningTableEnv)
	if path == "" {
		return nil, nil
	}
	t, err := tune.Load(path)
	if err != nil {
		return nil, fmt.Errorf("encag: %s: %w", TuningTableEnv, err)
	}
	return t, nil
}

// autoCandidate filters what AlgAuto may select: encrypted algorithms
// only — a tuning table (possibly stale, possibly hand-edited) must
// never downgrade an auto operation to an unencrypted baseline, and an
// algorithm name this build no longer has falls back instead of
// erroring mid-operation.
func autoCandidate(name string) bool { return Alg(name).Encrypted() }

// tuneKey is the tuning-cell key of one operation on this session.
func (s *Session) tuneKey(maxSize int64) tune.Key {
	return tune.Key{
		Bucket:    tune.BucketOf(maxSize),
		P:         s.cs.P,
		N:         s.cs.N,
		Engine:    string(s.engine),
		Pipelined: s.pipelined,
	}
}

// resolveAlg turns an already-parsed algorithm into its implementation
// and, for AlgAuto, first resolves it to the tuner's concrete choice for
// an operation whose maximum block size is maxSize. Returns the
// implementation and the algorithm that will actually run.
func (s *Session) resolveAlg(a Alg, maxSize int64) (cluster.Algorithm, Alg) {
	if a == AlgAuto {
		a = Alg(s.tuner.Pick(s.tuneKey(maxSize), maxSize))
		s.countAutoSelected(a)
	}
	return lookup(a), a
}

// countAutoSelected charges one AlgAuto resolution to the
// encag_auto_selected_total{alg=...} family, caching the per-algorithm
// counter handles.
func (s *Session) countAutoSelected(a Alg) {
	s.autoMu.Lock()
	c := s.autoSel[a]
	if c == nil {
		c = s.inner.Metrics().Counter(MetricAutoSelected,
			"AlgAuto resolutions by chosen algorithm.", metrics.L("alg", string(a)))
		s.autoSel[a] = c
	}
	s.autoMu.Unlock()
	c.Inc()
}

// observeLatency folds a successful real collective's latency into the
// tuner's online estimates (all algorithms, not just auto runs — an
// explicit hs2 op teaches the tuner about hs2 too). Skipped when
// refinement is off and for fault-plan runs, whose latency measures the
// injected faults rather than the algorithm.
func (s *Session) observeLatency(planned bool, maxSize int64, used Alg, elapsed time.Duration) {
	if !s.refine || planned || !autoCandidate(string(used)) {
		return
	}
	s.tuner.Observe(s.tuneKey(maxSize), string(used), elapsed)
}
