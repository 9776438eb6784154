package encrypted

import (
	"strings"
	"sync/atomic"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
)

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
		var tampered atomic.Int64
		adv := func(src, dst int, msg block.Message) block.Message {
			// Tamper with the first sealed chunk we see.
			if tampered.Load() > 0 {
				return msg
			}
			out := msg.Clone()
			for i, c := range out.Chunks {
				if c.Enc && len(c.Payload) > 0 {
					bad := append([]byte(nil), c.Payload...)
					bad[len(bad)/2] ^= 0x01
					out.Chunks[i].Payload = bad
					tampered.Add(1)
					break
				}
			}
			return out
		}
		_, err = cluster.RunOnce(spec, cluster.SessionConfig{Adversary: adv}, cluster.Op{Algo: alg, MsgSize: 64})
		if tampered.Load() == 0 {
			t.Errorf("%s: adversary never saw a ciphertext to tamper with", name)
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

// Re-labelling an intercepted ciphertext (claiming it carries different
// blocks) must also fail: the chunk header is bound as GCM AAD.
func TestHeaderSpliceDetected(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping}
	for _, name := range []string{"naive", "c-ring", "hs2"} {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var spliced atomic.Int64
		adv := func(src, dst int, msg block.Message) block.Message {
			if spliced.Load() > 0 {
				return msg
			}
			out := msg.Clone()
			for i, c := range out.Chunks {
				if c.Enc && len(c.Blocks) > 0 {
					// Claim the ciphertext came from a different origin.
					nb := append([]block.Block(nil), c.Blocks...)
					nb[0].Origin = (nb[0].Origin + 1) % spec.P
					out.Chunks[i].Blocks = nb
					spliced.Add(1)
					break
				}
			}
			return out
		}
		_, err = cluster.RunOnce(spec, cluster.SessionConfig{Adversary: adv}, cluster.Op{Algo: alg, MsgSize: 48})
		if spliced.Load() == 0 {
			t.Errorf("%s: adversary found nothing to splice", name)
			continue
		}
		if err == nil {
			t.Errorf("%s: re-labelled ciphertext accepted", name)
		}
	}
}

// A passive adversary (pure observation) must not disturb anything, and
// must see only ciphertext bytes on inter-node links.
func TestPassiveObserverSeesOnlyCiphertext(t *testing.T) {
	spec := cluster.Spec{P: 8, N: 4, Mapping: cluster.CyclicMapping}
	const m = 64
	secretByte := block.Pattern(3, 7) // a byte of rank 3's block
	_ = secretByte
	for _, name := range PaperNames() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var observedPlain atomic.Int64
		adv := func(src, dst int, msg block.Message) block.Message {
			for _, c := range msg.Chunks {
				if !c.Enc && c.PlainLen() > 0 {
					observedPlain.Add(1)
				}
			}
			return msg
		}
		res, err := cluster.RunOnce(spec, cluster.SessionConfig{Adversary: adv}, cluster.Op{Algo: alg, MsgSize: m})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if observedPlain.Load() > 0 {
			t.Errorf("%s: adversary observed %d plaintext chunks on inter-node links", name, observedPlain.Load())
		}
	}
}
