package cluster

import (
	"fmt"
	"sync"

	"encag/internal/block"
)

// SecurityAudit records what the transport observed, so tests can prove
// the paper's security property: plaintext never crosses a node boundary.
type SecurityAudit struct {
	mu                 sync.Mutex
	InterMsgs          int
	IntraMsgs          int
	PlaintextInterMsgs int
	Violations         []string
}

func (a *SecurityAudit) record(spec Spec, src, dst int, msg block.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if spec.SameNode(src, dst) {
		a.IntraMsgs++
		return
	}
	a.InterMsgs++
	for _, c := range msg.Chunks {
		if !c.Enc && c.PlainLen() > 0 {
			a.PlaintextInterMsgs++
			if len(a.Violations) < 32 {
				a.Violations = append(a.Violations,
					fmt.Sprintf("plaintext chunk (%d bytes) sent %d -> %d across nodes", c.PlainLen(), src, dst))
			}
			break
		}
	}
}

// Clean reports whether no plaintext crossed node boundaries.
func (a *SecurityAudit) Clean() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.PlaintextInterMsgs == 0
}

// Adversary intercepts inter-node messages on EngineChan, modelling
// the paper's threat: a network attacker who can observe and modify
// traffic between nodes. It returns the (possibly tampered) message to
// deliver. Intra-node messages never pass through it — they never leave
// the trusted node.
type Adversary func(src, dst int, msg block.Message) block.Message

// ValidateGather checks that every rank's result is a complete, fully
// decrypted all-gather of p blocks of msgSize bytes: no chunk still
// encrypted, every origin present exactly once with the right length.
// With checkPayload (real results only) every gathered byte is also
// compared with the deterministic test pattern of its origin — one
// pass over the gathered bytes (block.CheckPattern), no allocation — so
// corruption that no AEAD covers (intra-node plaintext, an aliased
// buffer) is caught on either link.
func ValidateGather(spec Spec, msgSize int64, results []block.Message, checkPayload bool) error {
	return ValidateGatherV(spec, block.UniformSizes(spec.P, msgSize), results, checkPayload)
}

// ValidateGatherV is ValidateGather for variable block sizes.
func ValidateGatherV(spec Spec, sizes []int64, results []block.Message, checkPayload bool) error {
	_, err := GatherViews(spec, sizes, results, checkPayload)
	return err
}

// GatherViews validates like ValidateGatherV and returns what it walked:
// views[rank][origin] is origin's block as rank gathered it, a slice of
// that rank's result message (nil in sim mode), not a copy.
func GatherViews(spec Spec, sizes []int64, results []block.Message, checkPayload bool) ([][][]byte, error) {
	if len(results) != spec.P {
		return nil, fmt.Errorf("cluster: %d results for %d ranks", len(results), spec.P)
	}
	views := make([][][]byte, len(results))
	for r, msg := range results {
		v, err := block.NormalizeV(msg, sizes, checkPayload)
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d result invalid: %w", r, err)
		}
		views[r] = v
	}
	return views, nil
}
