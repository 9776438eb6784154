// Package bounds holds the paper's analytical results: the lower bounds
// for encrypted all-gather (Table I) and the closed-form metric
// predictions for each algorithm (Table II, power-of-two p and N, block
// mapping).
package bounds

import (
	"fmt"
	"math"

	"encag/internal/cluster"
	"encag/internal/collective"
)

// Metrics is the six-tuple of the paper's cost metrics a run measures.
type Metrics = cluster.Critical

// six builds a Metrics from the six values in Table II's column order.
func six(rc int, sc int64, re int, se int64, rd int, sd int64) Metrics {
	return Metrics{Rc: rc, Sc: sc, Re: re, Se: se, Rd: rd, Sd: sd}
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// IsPow2 reports whether n is a power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Lower returns the Table I lower bounds for encrypted all-gather of
// m-byte blocks on p processes over N nodes with l = p/N per node.
func Lower(p, n int, m int64) Metrics {
	l := p / n
	rd := 1
	if n > 1 {
		rd = int(math.Ceil(math.Log2(float64(n)) / math.Log2(float64(l+1))))
		if rd < 1 {
			rd = 1
		}
	}
	return six(ceilLog2(p), int64(p-1)*m, 1, m, rd, int64(n-1)*m)
}

// Predict returns the Table II closed forms for an algorithm under
// block mapping with power-of-two p and N. For O-RD's r_d it follows the
// paper's body text (N-1) rather than the table cell (p-l), which is
// inconsistent with the table's own s_d column; see DESIGN.md. Naive
// dispatches as MVAPICH does: the table's recursive doubling below
// collective.DefaultRingThreshold, the ring (p-1 rounds) from it on.
func Predict(alg string, p, n int, m int64) (Metrics, error) {
	if !IsPow2(p) || !IsPow2(n) {
		return Metrics{}, fmt.Errorf("bounds: Table II assumes power-of-two p and N, got p=%d N=%d", p, n)
	}
	if p%n != 0 {
		return Metrics{}, fmt.Errorf("bounds: p=%d not a multiple of N=%d", p, n)
	}
	l := p / n
	lgP, lgN := ceilLog2(p), ceilLog2(n)
	P, N, L := int64(p), int64(n), int64(l)
	switch alg {
	case "naive":
		rc := lgP
		if m >= collective.DefaultRingThreshold {
			rc = p - 1
		}
		return six(rc, (P-1)*m, 1, m, p-1, (P-1)*m), nil
	case "o-ring":
		return six(p-1, (P-1)*m, p-1, (P-1)*m, p-1, (P-1)*m), nil
	case "o-rd":
		return six(lgP, (P-1)*m, 1, L*m, n-1, (P-L)*m), nil
	case "o-rd2":
		return six(lgP, (P-1)*m, lgN, (P-L)*m, lgN, (P-L)*m), nil
	case "c-ring":
		return six(n+l-2, (P-1)*m, 1, m, n-1, (N-1)*m), nil
	case "c-rd":
		return six(lgP, (P-1)*m, 1, m, n-1, (N-1)*m), nil
	case "hs1":
		rd := ceilDiv(n-1, l)
		return six(lgN, (P-L)*m, 1, L*m, rd, int64(rd)*L*m), nil
	case "hs2":
		return six(lgN, (P-L)*m, 1, m, n-1, (N-1)*m), nil
	}
	return Metrics{}, fmt.Errorf("bounds: no Table II entry for %q", alg)
}

// PredictCyclic returns closed forms under CYCLIC mapping (power-of-two
// p and N, l = p/N >= 2). The paper only tabulates block mapping; these
// are our derivations, verified against the instrumented implementation.
//
// Under cyclic mapping recursive doubling meets its inter-node partners
// *first* (distance < N), while each process still owns only its own
// block, so:
//
//   - O-RD seals just its own m bytes once (s_e = m, not l*m) and later,
//     at the first intra-node round, opens the N-1 single-block
//     ciphertexts it collected (s_d = (N-1)m, not (p-l)m);
//   - O-RD2 re-seals sets of size m, 2m, ..., (N/2)m (s_e = (N-1)m, not
//     (p-l)m) and opens the same (s_d = (N-1)m).
//
// Everything else is mapping-oblivious by construction: the rank-ordered
// O-Ring, the Concurrent family (its groups are one-process-per-node
// under any mapping) and the HS family (crypto happens via shared
// memory; only step-4 copy costs change, which are not among the six
// metrics).
func PredictCyclic(alg string, p, n int, m int64) (Metrics, error) {
	if !IsPow2(p) || !IsPow2(n) {
		return Metrics{}, fmt.Errorf("bounds: cyclic closed forms assume power-of-two p and N, got p=%d N=%d", p, n)
	}
	if p%n != 0 || p/n < 2 {
		return Metrics{}, fmt.Errorf("bounds: cyclic forms need l = p/N >= 2, got p=%d N=%d", p, n)
	}
	lgP, lgN := ceilLog2(p), ceilLog2(n)
	P, N := int64(p), int64(n)
	switch alg {
	case "o-rd":
		return six(lgP, (P-1)*m, 1, m, n-1, (N-1)*m), nil
	case "o-rd2":
		return six(lgP, (P-1)*m, lgN, (N-1)*m, lgN, (N-1)*m), nil
	case "naive", "o-ring", "c-ring", "c-rd", "hs1", "hs2":
		return Predict(alg, p, n, m)
	}
	return Metrics{}, fmt.Errorf("bounds: no cyclic entry for %q", alg)
}
