// Package tune holds the measured algorithm-selection policy behind
// alg=auto: a versioned JSON tuning table produced by an offline sweep
// (encag tune), nearest-key fallback for configurations the sweep
// did not cover, the paper-calibrated byte thresholds as the built-in
// default, and an online EWMA refinement hook that folds a session's
// own per-op latencies back into the estimates so long-lived sessions
// converge away from a stale table.
package tune

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// Version is the tuning-table schema version this package reads and
// writes. Tables with a different version are rejected by Validate.
const Version = 1

// Key identifies one tuning cell: a power-of-two message-size bucket on
// a concrete cluster shape and execution mode. Engine and Pipelined are
// hard constraints — a measurement taken on one engine or pipelining
// mode never informs selection on another — while Bucket, P and N admit
// nearest-key fallback.
type Key struct {
	// Bucket is the size bucket, BucketOf(maxBlockSize).
	Bucket int `json:"bucket"`
	// P and N are the job shape: ranks and nodes.
	P int `json:"p"`
	N int `json:"n"`
	// Engine is the engine name the cell was measured on ("chan",
	// "tcp", "sim").
	Engine string `json:"engine"`
	// Pipelined records whether intra-collective pipelining was on.
	Pipelined bool `json:"pipelined,omitempty"`
}

// BucketOf maps a message size in bytes to its power-of-two bucket:
// bucket b covers [2^b, 2^(b+1)). Sizes ≤ 1 land in bucket 0. The
// paper-calibrated thresholds (1KB, 16KB) are bucket boundaries, so the
// built-in default policy is expressible per bucket.
func BucketOf(m int64) int {
	if m <= 1 {
		return 0
	}
	b := 0
	for v := uint64(m); v > 1; v >>= 1 {
		b++
	}
	return b
}

// Cell is one measured table entry: the per-algorithm latency estimates
// for a Key and the sweep's winner.
type Cell struct {
	Key
	// Best is the sweep's argmin algorithm for this cell.
	Best string `json:"best"`
	// LatencyNS maps algorithm name to its measured best-of-k latency
	// in nanoseconds.
	LatencyNS map[string]float64 `json:"latency_ns"`
}

// Table is the versioned tuning table emitted by encag tune and
// consumed by Session via WithTuningTable or the ENCAG_TUNING_TABLE
// environment variable.
type Table struct {
	Version int `json:"version"`
	// GeneratedAt and Host describe the sweep's provenance.
	GeneratedAt string `json:"generated_at,omitempty"`
	Host        string `json:"host,omitempty"`
	Note        string `json:"note,omitempty"`
	Cells       []Cell `json:"cells"`
}

// Validate checks schema version and per-cell invariants.
func (t *Table) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("tune: table version %d, want %d", t.Version, Version)
	}
	for i, c := range t.Cells {
		if c.Bucket < 0 || c.P <= 0 || c.N <= 0 || c.Engine == "" {
			return fmt.Errorf("tune: cell %d has invalid key %+v", i, c.Key)
		}
		if c.Best == "" && len(c.LatencyNS) == 0 {
			return fmt.Errorf("tune: cell %d (%+v) carries no measurements", i, c.Key)
		}
	}
	return nil
}

// Parse decodes and validates a JSON tuning table.
func Parse(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Load reads a JSON tuning table from disk.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	return Parse(data)
}

// Encode renders the table as indented JSON, cells sorted for stable
// diffs.
func (t *Table) Encode() ([]byte, error) {
	slices.SortStableFunc(t.Cells, func(x, y Cell) int {
		a, b := x.Key, y.Key
		if a.Engine == b.Engine && a.Pipelined != b.Pipelined {
			if a.Pipelined {
				return 1
			}
			return -1
		}
		return cmp.Or(cmp.Compare(a.Engine, b.Engine), cmp.Compare(a.P, b.P), cmp.Compare(a.N, b.N), cmp.Compare(a.Bucket, b.Bucket))
	})
	return json.MarshalIndent(t, "", "  ")
}

// Lookup returns the cell exactly matching k, or nil.
func (t *Table) Lookup(k Key) *Cell {
	for i := range t.Cells {
		if t.Cells[i].Key == k {
			return &t.Cells[i]
		}
	}
	return nil
}

// Nearest returns the closest cell to k, honoring Engine and Pipelined
// as hard constraints: a cell on a different engine or pipelining mode
// is never a fallback, however close its shape. Distance weighs cluster
// shape (log-ratio of P and of N) heavier than the size bucket, since a
// crossover measured on the wrong topology misleads more than one
// measured a bucket away. Returns nil when no cell shares the
// engine+pipelining mode.
func (t *Table) Nearest(k Key) *Cell {
	var best *Cell
	bestDist := math.Inf(1)
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.Engine != k.Engine || c.Pipelined != k.Pipelined {
			continue
		}
		d := math.Abs(float64(c.Bucket-k.Bucket)) +
			4*math.Abs(log2Ratio(c.P, k.P)) +
			4*math.Abs(log2Ratio(c.N, k.N))
		if d < bestDist {
			bestDist, best = d, c
		}
	}
	return best
}

func log2Ratio(a, b int) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Log2(float64(a) / float64(b))
}

// DefaultPick is the built-in policy used when no table covers a key:
// byte thresholds calibrated from the reproduction's Tables III/IV —
// round-frugal O-RD2 below 1KB, the concurrent C-RD in the middle band,
// HS2 from 16KB up. All three are mapping-robust choices in both the
// paper's and our measurements.
func DefaultPick(m int64) string {
	const small, large = 1 << 10, 16 << 10
	switch {
	case m < small:
		return "o-rd2"
	case m < large:
		return "c-rd"
	default:
		return "hs2"
	}
}

// estimate is one algorithm's online latency state within a key.
type estimate struct {
	ewmaNS  float64
	samples int
}

// Tuner makes per-operation algorithm choices for alg=auto. It merges
// three sources, in increasing authority: the built-in DefaultPick
// thresholds, the loaded table's measurements (exact key, then nearest
// same-engine key), and the session's own observed latencies once an
// algorithm has enough samples in a bucket. Safe for concurrent use.
type Tuner struct {
	// alpha is the EWMA smoothing factor for observed latencies.
	alpha float64
	// minSamples gates online estimates: an algorithm's own
	// measurements override the sweep's only after this many
	// observations in a key, so one noisy op cannot flip selection.
	minSamples int

	mu    sync.Mutex
	table *Table
	valid func(string) bool
	seen  map[Key]map[string]*estimate
}

// NewTuner builds a tuner over table (which may be nil — then only the
// built-in thresholds and online observations inform choices). valid
// filters candidate algorithm names, guarding against stale tables
// naming algorithms this build no longer has; nil accepts everything.
func NewTuner(table *Table, valid func(string) bool) *Tuner {
	if valid == nil {
		valid = func(string) bool { return true }
	}
	return &Tuner{
		alpha:      0.2,
		minSamples: 3,
		table:      table,
		valid:      valid,
		seen:       make(map[Key]map[string]*estimate),
	}
}

// Table exposes the loaded table (nil when running on built-ins only).
func (t *Tuner) Table() *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.table
}

// Pick selects the algorithm for one operation: key identifies the
// cell, m is the operation's max block size in bytes (used only for the
// built-in threshold fallback, so bucket-interior sizes and the bucket
// boundary agree). The choice is deterministic given the table and the
// observation history.
func (t *Tuner) Pick(k Key, m int64) string {
	t.mu.Lock()
	defer t.mu.Unlock()

	// Start from the table's estimates: exact cell, else nearest cell
	// sharing the hard engine+pipelining constraints.
	var cell *Cell
	if t.table != nil {
		if cell = t.table.Lookup(k); cell == nil {
			cell = t.table.Nearest(k)
		}
	}
	est := make(map[string]float64)
	if cell != nil {
		for alg, ns := range cell.LatencyNS {
			if t.valid(alg) {
				est[alg] = ns
			}
		}
	}
	// Online refinement: once an algorithm has enough of the session's
	// own samples in this key, its EWMA supersedes the sweep's number.
	for alg, e := range t.seen[k] {
		if e.samples >= t.minSamples && t.valid(alg) {
			est[alg] = e.ewmaNS
		}
	}
	if len(est) > 0 {
		return Argmin(est)
	}
	if cell != nil && t.valid(cell.Best) {
		return cell.Best
	}
	return DefaultPick(m)
}

// Argmin returns the lowest-latency algorithm, ties broken
// lexicographically so selection is deterministic: a tuner's pick from
// its estimates, and a sweep's Cell.Best.
func Argmin(est map[string]float64) string {
	best, bestNS := "", math.Inf(1)
	for alg, ns := range est {
		if ns < bestNS || (ns == bestNS && alg < best) {
			best, bestNS = alg, ns
		}
	}
	return best
}

// Observe folds one finished operation's latency into the online
// estimate for (key, alg). Callers should skip ops whose latency is not
// representative (fault injection, cancelled runs).
func (t *Tuner) Observe(k Key, alg string, d time.Duration) {
	if d <= 0 {
		return
	}
	ns := float64(d.Nanoseconds())
	t.mu.Lock()
	defer t.mu.Unlock()
	algs := t.seen[k]
	if algs == nil {
		algs = make(map[string]*estimate)
		t.seen[k] = algs
	}
	e := algs[alg]
	if e == nil {
		algs[alg] = &estimate{ewmaNS: ns, samples: 1}
		return
	}
	e.ewmaNS = t.alpha*ns + (1-t.alpha)*e.ewmaNS
	e.samples++
}

// Samples reports how many observations (key, alg) has accumulated —
// used by tests and debug output.
func (t *Tuner) Samples(k Key, alg string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.seen[k][alg]; e != nil {
		return e.samples
	}
	return 0
}
