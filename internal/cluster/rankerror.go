package cluster

import (
	"fmt"
	"sync"
)

// RankError is the structured failure report of a run: the first rank
// that hit a root-cause error, the peer involved (or -1), the transport
// operation that failed, and the underlying error. Every failure of a
// chan or tcp collective surfaces as exactly one RankError:
// secondary failures of ranks unblocked by the abort machinery are
// discarded, so callers always see the first root cause rather than a
// cascade of closed-connection noise.
type RankError struct {
	Rank int    // failing rank; -1 for run-level failures (e.g. timeout)
	Peer int    // other rank of the failing operation; -1 when none
	Op   string // "send", "recv", "dial", "open", "run", "timeout", ...
	Err  error
}

func (e *RankError) Error() string {
	switch {
	case e.Rank < 0:
		return fmt.Sprintf("cluster: %s: %v", e.Op, e.Err)
	case e.Peer >= 0:
		return fmt.Sprintf("cluster: rank %d: %s failed (peer %d): %v", e.Rank, e.Op, e.Peer, e.Err)
	default:
		return fmt.Sprintf("cluster: rank %d: %s failed: %v", e.Rank, e.Op, e.Err)
	}
}

func (e *RankError) Unwrap() error { return e.Err }

// failState records the first root-cause error of a run. Later errors —
// typically secondary failures of ranks unblocked by abort() — are
// dropped.
type failState struct {
	mu    sync.Mutex
	first *RankError
}

func (f *failState) record(re *RankError) {
	f.mu.Lock()
	if f.first == nil {
		f.first = re
	}
	f.mu.Unlock()
}

// err returns the recorded root cause as an error, or a nil interface
// when the run succeeded.
func (f *failState) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.first == nil {
		return nil
	}
	return f.first
}

// recoverRank converts a rank goroutine's panic into the run's error
// state: structured RankErrors are recorded as-is, the errRunAborted
// sentinel (a rank unblocked by another rank's failure) is discarded,
// and anything else — an algorithm bug, a seal failure that predates the
// structured path — is wrapped. abort is always triggered so peers
// unwind instead of deadlocking.
func recoverRank(rec any, fails *failState, abort func(), rank int) {
	if rec == nil {
		return
	}
	abort()
	switch v := rec.(type) {
	case *RankError:
		fails.record(v)
	case string:
		if v == errRunAborted {
			return
		}
		fails.record(&RankError{Rank: rank, Peer: -1, Op: "run", Err: fmt.Errorf("%s", v)})
	default:
		fails.record(&RankError{Rank: rank, Peer: -1, Op: "run", Err: fmt.Errorf("%v", rec)})
	}
}
