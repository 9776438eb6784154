package encag

import (
	"fmt"
	"slices"
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
	if _, ok := algTable[a]; ok || a == AlgAuto {
		return a, nil
	}
	return "", &UnknownAlgorithmError{Name: name, Valid: Algorithms()}
}

// algEntry is one row of the algorithm table.
type algEntry struct {
	impl cluster.Algorithm
	// encrypted marks an algorithm that seals everything it sends
	// across nodes: the only kind AlgAuto may select.
	encrypted bool
}

// algTable is the one place a name maps to an implementation: every
// concrete algorithm (each encrypted algorithm, its plain-<name>
// counterpart, the MVAPICH-style baseline "mpi" and the plaintext
// classics), built once at init. algNames is every selectable name,
// AlgAuto included, sorted; paperAlgs is the paper's eight in Table II
// order. Every implementation is a stateless closure, so one shared
// value per name serves every concurrent operation.
var algTable, algNames, paperAlgs = newAlgTable()

func newAlgTable() (map[Alg]algEntry, []Alg, []Alg) {
	table := map[Alg]algEntry{
		AlgMPI:           {impl: collective.AsAlgorithm(collective.MVAPICH(0))},
		AlgPlainRing:     {impl: collective.AsAlgorithm(collective.Ring)},
		AlgPlainRingRO:   {impl: collective.AsAlgorithm(collective.RankOrderedRing)},
		AlgPlainRD:       {impl: collective.AsAlgorithm(collective.RD)},
		AlgPlainBruck:    {impl: collective.AsAlgorithm(collective.Bruck)},
		AlgPlainHier:     {impl: collective.AsAlgorithm(collective.Hierarchical)},
		AlgPlainNeighbor: {impl: collective.AsAlgorithm(collective.NeighborExchange)},
	}
	for _, n := range encrypted.Names() {
		impl, _ := encrypted.Get(n)
		table[Alg(n)] = algEntry{impl: impl, encrypted: true}
		table[PlainOf(Alg(n))] = algEntry{impl: cluster.Plain(impl)}
	}
	names := []Alg{AlgAuto}
	for a := range table {
		names = append(names, a)
	}
	slices.Sort(names)
	var paper []Alg
	for _, n := range encrypted.PaperNames() {
		paper = append(paper, Alg(n))
	}
	return table, names, paper
}

// Algorithms lists every selectable algorithm, sorted. Every entry runs
// on every engine. The caller owns the returned slice.
func Algorithms() []Alg {
	return slices.Clone(algNames)
}

// PaperAlgorithms lists the paper's eight encrypted algorithms in Table
// II order.
func PaperAlgorithms() []Alg {
	return slices.Clone(paperAlgs)
}

// Encrypted reports whether a is a concrete algorithm that seals
// everything it sends across nodes: one of the paper's encrypted
// algorithms or an ablation variant, never a plaintext baseline. These
// are the algorithms AlgAuto may select.
func (a Alg) Encrypted() bool { return algTable[a].encrypted }

// lookup resolves a concrete algorithm to its implementation: ParseAlg's
// output with AlgAuto already resolved, or the tuner's pick, which
// autoCandidate limits to the table's encrypted entries. Any other name
// yields nil, which the runtime refuses to run.
func lookup(a Alg) cluster.Algorithm { return algTable[a].impl }
