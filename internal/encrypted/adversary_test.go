package encrypted

import (
	"context"
	"strings"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/fault"
	"encag/internal/seal"
)

// The network adversary of the paper's threat model is a fault.Corrupt
// plan on the inter-node pairs: it flips a byte of the first frame each
// of those pairs carries. On EngineChan the offset counts into the
// concatenated chunk payloads of the message; on EngineTCP into the
// frame's wire bytes.
func interNodeCorruption(spec cluster.Spec, offset int) *fault.Plan {
	plan := &fault.Plan{}
	for src := 0; src < spec.P; src++ {
		for dst := 0; dst < spec.P; dst++ {
			if !spec.SameNode(src, dst) {
				plan.Rules = append(plan.Rules, fault.Rule{Src: src, Dst: dst, Kind: fault.Corrupt, Offset: offset})
			}
		}
	}
	return plan
}

// tamperedRun runs op once on a fresh session under interNodeCorruption
// and returns the run's error and how many frames the plan corrupted.
func tamperedRun(t *testing.T, spec cluster.Spec, cfg cluster.SessionConfig, op cluster.Op, offset int) (int64, error) {
	t.Helper()
	s, err := cluster.OpenSession(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	op.Plan = interNodeCorruption(spec, offset)
	_, err = s.Collective(context.Background(), op)
	return s.Snapshot().FaultsInjected["corrupt"], err
}

// ciphertextAt is a payload offset inside the first segment's ciphertext
// of a single-segment blob: past the segmented header (magic, count, one
// length) and the segment's nonce.
const ciphertextAt = 8 + 4 + seal.NonceSize + 4

// Every algorithm must detect an active network adversary: flipping one
// bit of any inter-node ciphertext must make the run fail (GCM
// authentication), never silently corrupt a result.
func TestBitFlipDetectedByAllAlgorithms(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.BlockMapping}
	for _, name := range PaperNames() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tampered, err := tamperedRun(t, spec, cluster.SessionConfig{}, cluster.Op{Algo: alg, MsgSize: 64}, ciphertextAt)
		if tampered == 0 {
			t.Errorf("%s: the plan never corrupted a frame", name)
			continue
		}
		if err == nil {
			t.Errorf("%s: tampered ciphertext was not detected", name)
			continue
		}
		if !strings.Contains(err.Error(), "authentication") && !strings.Contains(err.Error(), "open failed") {
			t.Errorf("%s: failure was not an authentication error: %v", name, err)
		}
	}
}

// Re-labelling an intercepted ciphertext on a real socket (claiming it
// carries a different origin) must also fail: the chunk's block header
// is bound as GCM AAD. Byte 36 of an EAGM frame is the low byte of the
// first block's origin (20-byte prefix, chunk count, then the chunk's
// flags, tag and block count before its first block).
func TestHeaderSpliceDetected(t *testing.T) {
	const originAt = 36
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping}
	for _, name := range []string{"naive", "c-ring", "hs2"} {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := tamperedRun(t, spec, cluster.SessionConfig{Engine: cluster.EngineTCP},
			cluster.Op{Algo: alg, MsgSize: 48}, originAt)
		if spliced == 0 {
			t.Errorf("%s: the plan never corrupted a frame", name)
			continue
		}
		if err == nil {
			t.Errorf("%s: re-labelled ciphertext accepted", name)
		}
	}
}

// A passive adversary (pure observation) must not disturb anything, and
// must see only ciphertext bytes on the inter-node sockets: no rank's
// pattern appears in the capture, and no inter-node send carried a
// plaintext chunk.
func TestPassiveObserverSeesOnlyCiphertext(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.CyclicMapping}
	const m = 64
	for _, name := range PaperNames() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.RunOnce(spec, cluster.SessionConfig{Engine: cluster.EngineTCP}, cluster.Op{Algo: alg, MsgSize: m})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := cluster.MessageTotals(res.PerRank).PlainInterMsgs; n > 0 {
			t.Errorf("%s: %d inter-node sends carried plaintext", name, n)
		}
		if res.Sniffer.Total() == 0 {
			t.Fatalf("%s: the observer saw no inter-node bytes", name)
		}
		for r := 0; r < spec.P; r++ {
			if res.Sniffer.Contains(block.FillPattern(r, m)) {
				t.Errorf("%s: rank %d's plaintext visible on the wire", name, r)
			}
		}
	}
}
