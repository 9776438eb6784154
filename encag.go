// Package encag is an implementation and reproduction study of
// "Efficient Algorithms for Encrypted All-gather Operation"
// (Sadeghi Lahijani et al., IEEE IPDPS 2021): AES-GCM-encrypted
// MPI_Allgather algorithms that protect inter-node traffic while meeting
// the theoretical lower bounds on encryption and decryption cost.
//
// The entry point is the Session runtime: OpenSession stands up a
// persistent encrypted runtime once (for EngineTCP that means
// listeners, one dialed connection per ordered inter-node pair,
// handshakes and per-pair crypto state), then Session.Run /
// Session.Allgather / Session.AllgatherV / Session.Allreduce /
// Session.Simulate execute any number of collectives over it, each
// bounded by a context.Context and configured with functional options
// (WithTracer, WithFaultPlan, ...).
//
// Three engines execute the same algorithm code:
//
//   - EngineChan (the default): every rank is a goroutine, payloads are
//     real bytes and inter-node chunks are really AES-GCM sealed.
//     AllgatherV accepts unequal (even zero-length) contributions.
//
//   - EngineTCP: the same algorithms with inter-node traffic on real
//     loopback TCP sockets (same-node ranks deliver in memory, as on
//     EngineChan), capturing every inter-node wire byte, so Session.Wire
//     and Session.WireClean can state whether an eavesdropper saw any
//     plaintext.
//
//   - EngineSim (Session.Simulate / SimulateV, needs WithProfile): a
//     deterministic discrete-event cluster model (flow-level NIC
//     contention, Hockney startup costs, modelled GCM throughput)
//     reporting the projected latency plus the paper's six cost metrics
//     — this is what regenerates the paper's tables and figures at
//     p=1024 scale.
//
//   - On every engine, the simulator included, each rank checks every
//     message it sends: one that crosses a node boundary carrying a
//     plaintext chunk is reported in RunResult.Violations and clears
//     SecurityOK.
//
//   - LowerBounds / Predict evaluate the paper's Table I bounds and
//     Table II closed forms (pure analysis, no engine involved).
//
// Algorithms are selected by typed Alg constants (AlgORing, AlgHS2,
// ...) — see Algorithms and PaperAlgorithms; AlgAuto picks per
// operation the way production MPI libraries do, from a measured tuning
// table when one is loaded (WithTuningTable) and from the
// paper-calibrated byte thresholds otherwise. Every algorithm is valid
// on every engine.
package encag

import (
	"fmt"
	"strings"
	"time"

	"encag/internal/bounds"
	"encag/internal/cluster"
	"encag/internal/cost"
	"encag/internal/encrypted"
	"encag/internal/fault"
)

// Profile is a machine model (latencies, bandwidths, GCM throughput)
// consumed by EngineSim via WithProfile; the real engines (chan, tcp)
// measure instead of model and ignore it.
type Profile = cost.Profile

// Noleland returns the profile of the paper's local cluster (Intel Xeon
// Gold 6130, 100 Gb/s InfiniBand) for EngineSim.
func Noleland() Profile { return cost.Noleland() }

// Bridges2 returns the profile of PSC Bridges-2 (AMD EPYC 7742, 200 Gb/s
// InfiniBand) for EngineSim.
func Bridges2() Profile { return cost.Bridges2() }

// ProfileByName looks up a built-in EngineSim profile ("noleland" or
// "bridges2").
func ProfileByName(name string) (Profile, error) { return cost.ByName(name) }

// Metrics is the paper's six-metric cost summary of a run (maxima over
// ranks, the per-metric critical path). Produced by all three engines.
type Metrics = cluster.Critical

// TraceEvent is one interval of activity on one rank: what it was doing
// (send, recv-wait, encrypt, decrypt, copy, barrier), when, over how
// many bytes, and with which peer. Emitted by all three engines when a
// tracer is attached.
type TraceEvent = cluster.TraceEvent

// TraceKind labels a TraceEvent's activity category.
type TraceKind = cluster.TraceKind

// BoundSet carries Table I / Table II style metric tuples (pure
// analysis; no engine involved). It is Metrics under the name the
// bounds API uses.
type BoundSet = bounds.Metrics

// Spec describes a job: Procs ranks over Nodes nodes, with a "block",
// "cyclic" or custom placement. It is engine-independent; per-field
// notes state which engines consume each tuning knob.
type Spec struct {
	Procs   int
	Nodes   int
	Mapping string // "block" (default), "cyclic", or "custom"
	Custom  []int  // rank -> node, for "custom"

	// SegmentSize is the AES-GCM segmentation split size in bytes for
	// the chan and tcp engines; 0 selects the 64 KiB default. Payloads
	// at or above it are sealed as independently encrypted segments
	// processed concurrently (and still authenticated as one unit).
	SegmentSize int64

	// RecvTimeout bounds every single receive wait in the chan and tcp
	// engines: a rank waiting longer than this for a message (peer died,
	// frame lost to an injected fault) fails with a structured RankError
	// instead of hanging; cap a whole operation with its context. 0
	// selects the 30-second default. The simulator ignores it.
	RecvTimeout time.Duration
}

func (s Spec) toCluster() (cluster.Spec, error) {
	cs := cluster.Spec{P: s.Procs, N: s.Nodes, SegmentSize: s.SegmentSize, RecvTimeout: s.RecvTimeout}
	switch strings.ToLower(s.Mapping) {
	case "", "block":
		cs.Mapping = cluster.BlockMapping
	case "cyclic":
		cs.Mapping = cluster.CyclicMapping
	case "custom":
		cs.Mapping = cluster.CustomMapping
		cs.Custom = s.Custom
	default:
		return cs, fmt.Errorf("encag: unknown mapping %q (want block, cyclic or custom)", s.Mapping)
	}
	return cs, cs.Validate()
}

// SimResult is the outcome of an EngineSim collective (Session.Simulate,
// Session.SimulateV).
type SimResult struct {
	Latency    time.Duration // modelled completion time of the last rank
	Metrics    Metrics       // six-metric critical path
	InterBytes float64       // bytes that crossed node boundaries
	IntraBytes float64
	// Algorithm is the algorithm that actually ran: the request's, or —
	// for AlgAuto — the concrete algorithm the tuner selected.
	Algorithm Alg
}

// RunResult is the outcome of a real-execution collective on the chan or
// tcp engine (Session.Run, Allgather, AllgatherV, Start).
type RunResult struct {
	// Gathered[rank][origin] is origin's block as assembled at rank. The
	// views are the caller's: they never alias memory the session owns or
	// reuses (its recycled ciphertext buffers included), so they stay
	// valid for as long as the caller keeps them.
	Gathered [][][]byte
	Metrics  Metrics
	// SecurityOK is true when no message a rank sent to another node
	// carried a plaintext chunk. Every engine checks every send, EngineSim
	// included, and the verdict is the same on all three. GCM nonces need
	// no check: they are unique by construction (a random per-key field
	// and a per-key seal counter, SP 800-38D §8.2.1).
	SecurityOK bool
	// InterMessages / IntraMessages count the messages the ranks sent
	// across node boundaries and within their nodes (point-to-point sends;
	// shared-memory exchanges are not messages).
	InterMessages, IntraMessages int
	// Violations describes, in rank order, up to 32 inter-node sends that
	// carried plaintext; nil when SecurityOK's plaintext check passed.
	Violations []string
	Elapsed    time.Duration
	// OpID is the session-unique operation id the collective's frames
	// carried (ids start at 1). It labels the run's trace slices and
	// JSONL summaries, letting overlapped operations be told apart.
	OpID uint32
	// Algorithm is the algorithm that actually ran: the request's, or —
	// for AlgAuto — the concrete algorithm the tuner selected.
	Algorithm Alg
}

// FaultPlan is a deterministic, seedable fault-injection schedule for
// the transport (chan and tcp engines): per-rank-pair rules injecting
// connection drops, frame corruption, stalls, read delays and partial
// writes. Build one by hand from FaultRules, or generate one with
// RandomFaultPlan or TransientFaultPlan, and apply it with WithFaultPlan.
type FaultPlan = fault.Plan

// FaultRule is one per-rank-pair fault of a FaultPlan.
type FaultRule = fault.Rule

// FaultKind classifies a FaultRule.
type FaultKind = fault.Kind

// Fault kinds a FaultRule can inject.
const (
	FaultDrop         = fault.Drop
	FaultCorrupt      = fault.Corrupt
	FaultStall        = fault.Stall
	FaultStallRead    = fault.StallRead
	FaultPartialWrite = fault.PartialWrite
)

// RandomFaultPlan generates a deterministic plan of n rules for a world
// of procs ranks, drawing from every fault kind including frame
// corruption (which fails closed rather than recovers).
func RandomFaultPlan(seed int64, procs, n int) *FaultPlan { return fault.Random(seed, procs, n) }

// TransientFaultPlan generates a deterministic plan limited to
// recoverable faults (drops, stalls, read delays, partial writes): both
// real engines must complete correctly under any such plan.
func TransientFaultPlan(seed int64, procs, n int) *FaultPlan { return fault.Transient(seed, procs, n) }

// RankError is the structured failure report of a real-engine run (chan
// or tcp): the first rank that hit a root-cause error, the peer
// involved, the operation, and the underlying error. Retrieve it with
// errors.As. Cancelled session collectives report Op "cancel".
type RankError = cluster.RankError

// CombineFunc is an all-reduce operator: it folds src into dst (equal
// lengths). It must be associative and commutative, like an MPI_Op.
// Used by Session.Allreduce on the chan and tcp engines.
type CombineFunc = encrypted.Combine

// XORCombine is a ready-made CombineFunc.
func XORCombine(dst, src []byte) { encrypted.XOR(dst, src) }

// ReduceResult is the outcome of a Session.Allreduce on the chan or tcp
// engine.
type ReduceResult struct {
	// Result is the reduced vector (identical at every rank; verified).
	Result     []byte
	Metrics    Metrics
	SecurityOK bool
	Violations []string
	Elapsed    time.Duration
}

// LowerBounds evaluates the paper's Table I bounds for p ranks over n
// nodes with m-byte blocks (pure analysis; no engine involved).
func LowerBounds(p, n int, m int64) BoundSet { return bounds.Lower(p, n, m) }

// Predict evaluates the paper's Table II closed forms (power-of-two p
// and N, block mapping; pure analysis, no engine involved).
func Predict(algorithm Alg, p, n int, m int64) (BoundSet, error) {
	return bounds.Predict(string(algorithm), p, n, m)
}
