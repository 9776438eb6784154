package encag

import (
	"fmt"
	"sort"
	"strings"

	"encag/internal/cluster"
	"encag/internal/collective"
	"encag/internal/encrypted"
)

// Alg names an all-gather algorithm. It is string-backed so existing
// call sites passing string literals keep compiling, while the typed
// constants below make selections checkable at the call site. Every Alg
// is valid on every engine. AlgAuto defers the choice to the session's
// tuning table (see WithTuningTable and the "Algorithm selection"
// section of the README); every other name selects that algorithm
// unconditionally.
type Alg string

// The paper's encrypted algorithms (Table II names), the unencrypted
// baseline, and this reproduction's ablation variants.
const (
	// AlgAuto selects per operation from the session's tuning table
	// (measured crossovers when a table is loaded, the paper-calibrated
	// byte thresholds otherwise). The concrete choice is recorded in
	// RunResult.Algorithm and the encag_auto_selected_total metric.
	AlgAuto Alg = "auto"
	// AlgNaive is the paper's baseline: encrypt every send of an
	// MVAPICH-style dispatcher.
	AlgNaive Alg = "naive"
	// AlgNaiveRD and AlgNaiveRing pin the collective under the naive
	// scheme for ablations.
	AlgNaiveRD   Alg = "naive-rd"
	AlgNaiveRing Alg = "naive-ring"
	// AlgORing is the opportunistic ring (encrypt only at node
	// boundaries).
	AlgORing Alg = "o-ring"
	// AlgORD is opportunistic recursive doubling, forwarding ciphertexts.
	AlgORD Alg = "o-rd"
	// AlgORD2 is recursive doubling with merged ciphertexts.
	AlgORD2 Alg = "o-rd2"
	// AlgCRing is the concurrent ring (one ciphertext per node).
	AlgCRing Alg = "c-ring"
	// AlgCRD is concurrent recursive doubling.
	AlgCRD Alg = "c-rd"
	// AlgHS1 and AlgHS2 are the hierarchical schemes.
	AlgHS1 Alg = "hs1"
	AlgHS2 Alg = "hs2"
	// AlgHS1Solo is HS1 with leader-only decryption (ablation).
	AlgHS1Solo Alg = "hs1-solo"
	// AlgMPI is the MVAPICH-style unencrypted baseline.
	AlgMPI Alg = "mpi"
)

// Unencrypted classics, for baseline comparisons.
const (
	AlgPlainRing     Alg = "plain-ring"
	AlgPlainRingRO   Alg = "plain-ring-ro"
	AlgPlainRD       Alg = "plain-rd"
	AlgPlainBruck    Alg = "plain-bruck"
	AlgPlainHier     Alg = "plain-hier"
	AlgPlainNeighbor Alg = "plain-neighbor"
)

// String returns the algorithm's wire/flag name.
func (a Alg) String() string { return string(a) }

// PlainOf returns the unencrypted counterpart of an encrypted
// algorithm: identical communication structure, no cryptography —
// the curves the paper plots in Figures 5 and 6.
func PlainOf(a Alg) Alg { return "plain-" + a }

// UnknownAlgorithmError reports an algorithm name that matches nothing
// selectable. It lists the valid names so the caller (or the operator
// reading a log line) can fix the spelling without consulting the docs.
type UnknownAlgorithmError struct {
	// Name is the rejected input, as given.
	Name string
	// Valid enumerates every selectable algorithm.
	Valid []Alg
}

func (e *UnknownAlgorithmError) Error() string {
	names := make([]string, len(e.Valid))
	for i, a := range e.Valid {
		names[i] = string(a)
	}
	return fmt.Sprintf("encag: unknown algorithm %q (valid: %s)", e.Name, strings.Join(names, ", "))
}

// ParseAlg validates and normalizes an algorithm name (trimming space,
// lowercasing, resolving the "mvapich" alias to "mpi"). Unknown names
// return a structured *UnknownAlgorithmError listing the valid set —
// the same failure every Session operation reports at op start, so
// callers parsing flags or config fail identically to callers passing
// bad literals.
func ParseAlg(name string) (Alg, error) {
	a := Alg(strings.ToLower(strings.TrimSpace(name)))
	if a == "mvapich" {
		a = AlgMPI
	}
	if algSet[a] {
		return a, nil
	}
	return "", &UnknownAlgorithmError{Name: name, Valid: Algorithms()}
}

// algList is every selectable algorithm name, sorted, and algSet the
// same as a set; both are fixed once the encrypted registry is.
var algList, algSet = func() ([]Alg, map[Alg]bool) {
	set := make(map[Alg]bool)
	for _, n := range encrypted.Names() {
		set[Alg(n)] = true
		set[PlainOf(Alg(n))] = true
	}
	for _, a := range []Alg{AlgAuto, AlgMPI, AlgPlainRing, AlgPlainRingRO, AlgPlainRD,
		AlgPlainBruck, AlgPlainHier, AlgPlainNeighbor} {
		set[a] = true
	}
	list := make([]Alg, 0, len(set))
	for a := range set {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	return list, set
}()

// Algorithms lists every selectable algorithm, sorted. Every entry runs
// on every engine. The caller owns the returned slice.
func Algorithms() []Alg {
	return append([]Alg(nil), algList...)
}

// PaperAlgorithms lists the paper's eight encrypted algorithms in Table
// II order.
func PaperAlgorithms() []Alg {
	names := encrypted.PaperNames()
	out := make([]Alg, len(names))
	for i, n := range names {
		out[i] = Alg(n)
	}
	return out
}

// lookup resolves a parsed, concrete algorithm (ParseAlg's output, with
// AlgAuto already resolved) to an implementation. Encrypted algorithms
// use the paper's names; "plain-<name>" selects the unencrypted
// counterpart of an encrypted algorithm; "mpi" is the MVAPICH-style
// unencrypted baseline; plain classics are available as
// "plain-ring"/"plain-rd"/"plain-bruck"/"plain-hier".
func lookup(a Alg) (cluster.Algorithm, error) {
	switch a {
	case AlgMPI:
		return collective.AsAlgorithm(collective.MVAPICH(0)), nil
	case AlgPlainRing:
		return collective.AsAlgorithm(collective.Ring), nil
	case AlgPlainRingRO:
		return collective.AsAlgorithm(collective.RankOrderedRing), nil
	case AlgPlainRD:
		return collective.AsAlgorithm(collective.RD), nil
	case AlgPlainBruck:
		return collective.AsAlgorithm(collective.Bruck), nil
	case AlgPlainHier:
		return collective.AsAlgorithm(collective.Hierarchical), nil
	case AlgPlainNeighbor:
		return collective.AsAlgorithm(collective.NeighborExchange), nil
	}
	if base, ok := strings.CutPrefix(string(a), "plain-"); ok {
		impl, err := encrypted.Get(base)
		if err != nil {
			return nil, err
		}
		return cluster.Plain(impl), nil
	}
	return encrypted.Get(string(a))
}
