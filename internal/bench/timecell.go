package bench

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"encag"
)

// Timing is one timed cell: iters operations of one algorithm at one
// size on one session.
type Timing struct {
	// Samples are the recorded RunResult.Elapsed values, sorted
	// ascending. Under a window > 1 the operations overlap.
	Samples []time.Duration
	// Wall is the batch wall clock, from the first timed issue to the
	// last completion.
	Wall time.Duration
	// Metrics are the last recorded result's six cost metrics.
	Metrics encag.Metrics
	// Violations sums the recorded results' RunResult.Violations (at
	// most 32 per op). Only a plaintext baseline records any.
	Violations int
}

// TimeCell runs warmup untimed operations of alg at size on s, then
// times iters more. With window <= 1 they run one at a time through
// Run; otherwise all are issued through Start and waited on in order,
// and the session's WithMaxInFlight bounds how many run at once. The
// first failure ends the cell; the Timing holds what was recorded
// before it.
func TimeCell(ctx context.Context, s *encag.Session, alg encag.Alg, size int64, warmup, iters, window int) (Timing, error) {
	var t Timing
	for i := 0; i < warmup; i++ {
		if _, err := s.Run(ctx, alg, size); err != nil {
			return t, fmt.Errorf("warm-up: %w", err)
		}
	}
	start := time.Now()
	var first error
	if window <= 1 {
		for i := 0; i < iters && first == nil; i++ {
			first = t.add(s.Run(ctx, alg, size))
		}
	} else {
		hs := make([]*encag.Handle, 0, iters)
		for i := 0; i < iters && first == nil; i++ {
			var h *encag.Handle
			if h, first = s.Start(ctx, alg, size); first == nil {
				hs = append(hs, h)
			}
		}
		for _, h := range hs {
			res, err := h.Wait() // after a failure, only drain
			if first == nil {
				first = t.add(res, err)
			}
		}
	}
	t.Wall = time.Since(start)
	slices.Sort(t.Samples)
	return t, first
}

// add judges one timed result and records it if it passed.
func (t *Timing) add(res *encag.RunResult, err error) error {
	if err == nil {
		err = verdict(res)
	}
	if err != nil {
		return err
	}
	t.Samples = append(t.Samples, res.Elapsed)
	t.Metrics = res.Metrics
	t.Violations += len(res.Violations)
	return nil
}

// verdict is the one security rule for a timed cell. Plaintext crossing
// a node boundary fails the algorithm that ran (for auto, its pick) when
// that algorithm is encrypted; a plaintext baseline sends in the clear by
// design, and its violations are only counted.
func verdict(res *encag.RunResult) error {
	if res.SecurityOK || !res.Algorithm.Encrypted() {
		return nil
	}
	return fmt.Errorf("%s: security violation: %d inter-node sends carried plaintext", res.Algorithm, len(res.Violations))
}

// Min, Median, Max and Mean need at least one sample; Stddev, the
// sample standard deviation, is 0 below two.
func (t Timing) Min() time.Duration { return t.Samples[0] }

func (t Timing) Max() time.Duration { return t.Samples[len(t.Samples)-1] }

func (t Timing) Median() time.Duration {
	n := len(t.Samples)
	return (t.Samples[(n-1)/2] + t.Samples[n/2]) / 2
}

func (t Timing) Mean() time.Duration {
	var sum time.Duration
	for _, d := range t.Samples {
		sum += d
	}
	return sum / time.Duration(len(t.Samples))
}

func (t Timing) Stddev() time.Duration {
	if len(t.Samples) < 2 {
		return 0
	}
	mean, ss := t.Mean(), 0.0
	for _, d := range t.Samples {
		ss += float64(d-mean) * float64(d-mean)
	}
	return time.Duration(math.Sqrt(ss / float64(len(t.Samples)-1)))
}
