package cluster

import (
	"fmt"

	"encag/internal/block"
)

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
