// Chaos suite: every paper algorithm, on both transport engines, under
// deterministic fault plans, must either complete with fully verified
// gather buffers or return a single structured *RankError — never panic
// through the public API, deadlock, or leak goroutines (the package's
// TestMain fences the latter). Lives in an external test package so it
// can sweep internal/encrypted's registry without an import cycle.
package cluster_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"encag/internal/cluster"
	"encag/internal/encrypted"
	"encag/internal/fault"
)

var chaosSpecs = []cluster.Spec{
	{P: 4, N: 2, Mapping: cluster.BlockMapping},
	{P: 8, N: 4, Mapping: cluster.BlockMapping},
}

const chaosMsgSize = 2048

// chaosRecvTimeout keeps lossy plans fast: a frame lost to a drop fault
// surfaces as a recv error after this bound rather than the 30s default.
const chaosRecvTimeout = 2 * time.Second

// requireCompleteOrRankError asserts the hard chaos contract: success
// with verified buffers, or exactly one structured root-cause error.
func requireCompleteOrRankError(t *testing.T, spec cluster.Spec, res *cluster.RealResult, err error) {
	t.Helper()
	if err == nil {
		if verr := cluster.ValidateGather(spec, chaosMsgSize, res.Results, true); verr != nil {
			t.Fatalf("run completed but results are wrong: %v", verr)
		}
		return
	}
	var re *cluster.RankError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RankError: %v", err, err)
	}
}

// runFaulty runs one collective under a fault plan on a single-use
// session and folds the end-of-run gather validation into the error:
// corruption that lands on unauthenticated bytes (plaintext intra-node
// traffic, header fields that still parse) is a structured failure,
// never a silent success.
func runFaulty(engine cluster.EngineKind, spec cluster.Spec, algo cluster.Algorithm, plan *fault.Plan) (*cluster.RealResult, error) {
	res, err := cluster.RunOnce(spec, cluster.SessionConfig{Engine: engine},
		cluster.Op{Algo: algo, MsgSize: chaosMsgSize, Plan: plan})
	if err != nil {
		return nil, err
	}
	if verr := cluster.ValidateGather(spec, chaosMsgSize, res.Results, true); verr != nil {
		return nil, &cluster.RankError{Rank: -1, Peer: -1, Op: "validate",
			Err: fmt.Errorf("fault corrupted the gathered result: %w", verr)}
	}
	return res, nil
}

// Transient plans (drops, stalls, read delays, partial writes) are all
// recoverable on every pair kind: resending (after a redial on a socket
// pair) must absorb every one of them, so these runs are required to
// SUCCEED with verified buffers, on both engines.
func TestChaosTCPTransientPlansComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	// Chan cases are named under a chan/ prefix; TCP cases keep the bare
	// alg/p/seed names.
	for _, e := range []struct {
		prefix string
		engine cluster.EngineKind
	}{{"", cluster.EngineTCP}, {"chan/", cluster.EngineChan}} {
		prefix, engine := e.prefix, e.engine
		for _, spec := range chaosSpecs {
			spec := spec
			spec.RecvTimeout = 10 * time.Second // stalls legitimately slow frames down
			for _, name := range encrypted.PaperNames() {
				algo, err := encrypted.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					seed := seed
					t.Run(fmt.Sprintf("%s%s/p%d/seed%d", prefix, name, spec.P, seed), func(t *testing.T) {
						t.Parallel()
						plan := fault.Transient(seed, spec.P, 6)
						res, err := runFaulty(engine, spec, algo, plan)
						if err != nil {
							t.Fatalf("transient plan must be recoverable, got: %v\nplan: %v", err, plan)
						}
						if verr := cluster.ValidateGather(spec, chaosMsgSize, res.Results, true); verr != nil {
							t.Fatalf("recovered run has wrong buffers: %v\nplan: %v", verr, plan)
						}
					})
				}
			}
		}
	}
}

// Random plans include corruption, which authenticated encryption must
// reject: each run either completes correctly (the fault landed
// somewhere harmless, e.g. a frame that was retransmitted) or returns
// one structured *RankError naming the root cause.
func TestChaosTCPRandomPlansCompleteOrFailClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for _, spec := range chaosSpecs {
		spec := spec
		spec.RecvTimeout = chaosRecvTimeout
		for _, name := range encrypted.PaperNames() {
			algo, err := encrypted.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(10); seed <= 12; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("%s/p%d/seed%d", name, spec.P, seed), func(t *testing.T) {
					t.Parallel()
					plan := fault.Random(seed, spec.P, 6)
					res, err := runFaulty(cluster.EngineTCP, spec, algo, plan)
					requireCompleteOrRankError(t, spec, res, err)
				})
			}
		}
	}
}

// On the channel engine every pair is a memory pair: drops and partial
// writes are resent, and corruption flips a payload byte that either
// AES-GCM or the end-of-run check rejects, so the contract is
// complete-or-fail-closed with one structured error.
func TestChaosRealPlansCompleteOrFailClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for _, spec := range chaosSpecs {
		spec := spec
		spec.RecvTimeout = chaosRecvTimeout
		for _, name := range encrypted.PaperNames() {
			algo, err := encrypted.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(20); seed <= 21; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("%s/p%d/seed%d", name, spec.P, seed), func(t *testing.T) {
					t.Parallel()
					plan := fault.Random(seed, spec.P, 4)
					res, err := runFaulty(cluster.EngineChan, spec, algo, plan)
					requireCompleteOrRankError(t, spec, res, err)
				})
			}
		}
	}
}

// Determinism: the same plan against the same algorithm must reach the
// same verdict (success or same root-cause operation) on every run.
func TestChaosDeterministicVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping, RecvTimeout: chaosRecvTimeout}
	algo, err := encrypted.Get("o-ring")
	if err != nil {
		t.Fatal(err)
	}
	// A corruption pinned to an early frame of a busy pair: the verdict
	// must be identical across repeats.
	plan := &fault.Plan{Rules: []fault.Rule{
		{Src: 1, Dst: 2, Frame: 0, Kind: fault.Corrupt, Offset: 60},
	}}
	var verdicts []string
	for i := 0; i < 3; i++ {
		_, err := runFaulty(cluster.EngineTCP, spec, algo, plan)
		switch {
		case err == nil:
			verdicts = append(verdicts, "ok")
		default:
			var re *cluster.RankError
			if !errors.As(err, &re) {
				t.Fatalf("run %d: error is %T, want *RankError: %v", i, err, err)
			}
			verdicts = append(verdicts, re.Op)
		}
	}
	for _, v := range verdicts[1:] {
		if v != verdicts[0] {
			t.Fatalf("verdicts diverged across identical runs: %v", verdicts)
		}
	}
}

// A corrupted inter-node frame must be rejected by authenticated
// decryption (or the lost frame must starve a recv): under a pure
// corruption plan aimed at ciphertext bytes, no run may silently
// deliver wrong buffers.
func TestChaosCorruptionNeverDeliversWrongBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping, RecvTimeout: chaosRecvTimeout}
	for _, name := range encrypted.PaperNames() {
		algo, err := encrypted.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Flip a byte deep inside frame payloads on every frame of one
			// inter-node pair (0 -> 2 crosses nodes under block mapping).
			plan := &fault.Plan{Rules: []fault.Rule{
				{Src: 0, Dst: 2, Frame: -1, Kind: fault.Corrupt, Offset: 80, Times: -1},
			}}
			res, err := runFaulty(cluster.EngineTCP, spec, algo, plan)
			if err != nil {
				var re *cluster.RankError
				if !errors.As(err, &re) {
					t.Fatalf("error is %T, want *RankError: %v", err, err)
				}
				return // fail-closed: the desired outcome
			}
			// Some algorithms never route 0->2 directly; then the run must
			// be fully correct.
			if verr := cluster.ValidateGather(spec, chaosMsgSize, res.Results, true); verr != nil {
				t.Fatalf("corruption slipped through undetected: %v", verr)
			}
		})
	}
}
