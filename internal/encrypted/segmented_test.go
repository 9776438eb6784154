package encrypted

import (
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/seal"
)

// cryptoPool gives a test a dedicated crypto pool of n workers, closed
// when the test ends.
func cryptoPool(t *testing.T, n int) *seal.Pool {
	p := seal.NewPool(n)
	t.Cleanup(p.Close)
	return p
}

// With a segment size far below the message size, every seal fans out
// into multiple GCM segments. All eight paper algorithms must still be
// byte-correct, leak no plaintext across node boundaries, and never
// reuse a nonce — the acceptance bar for the segmented crypto engine.
func TestAllEncryptedSecureWithSegmentation(t *testing.T) {
	const m = 1 << 12 // 4 KiB blocks, 256 B segments: >= 16 segments per block
	cases := []struct {
		spec    cluster.Spec
		workers int
	}{
		{cluster.Spec{P: 8, N: 2, Mapping: cluster.BlockMapping, SegmentSize: 256}, 4},
		{cluster.Spec{P: 8, N: 4, Mapping: cluster.CyclicMapping, SegmentSize: 256}, 2},
	}
	for _, c := range cases {
		spec, cfg := c.spec, cluster.SessionConfig{CryptoPool: cryptoPool(t, c.workers)}
		for _, name := range PaperNames() {
			alg, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := auditedRunOnce(spec, cfg, cluster.Op{Algo: alg, MsgSize: m})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
				t.Fatalf("%s on %v: %v", name, spec, err)
			}
			if cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
				t.Fatalf("%s on %v leaked plaintext across nodes: %v", name, spec, cluster.MessageTotals(res.PerRank).Violations)
			}
			var segs int
			for r, pm := range res.PerRank {
				segs += pm.EncSegments
				if pm.EncSegments < pm.EncRounds {
					t.Fatalf("%s on %v rank %d: EncSegments %d < EncRounds %d",
						name, spec, r, pm.EncSegments, pm.EncRounds)
				}
				if pm.DecSegments < pm.DecRounds {
					t.Fatalf("%s on %v rank %d: DecSegments %d < DecRounds %d",
						name, spec, r, pm.DecSegments, pm.DecRounds)
				}
			}
			if segs == 0 {
				t.Fatalf("%s on %v: no segments counted", name, spec)
			}
		}
	}
}

// A single 4 KiB block sealed with 1 KiB segments must fan out into
// exactly 4 GCM segments while still counting one encryption round —
// the paper's r_e semantics are unchanged by segmentation.
func TestSegmentationKeepsRoundSemantics(t *testing.T) {
	spec := cluster.Spec{P: 2, N: 2, Mapping: cluster.BlockMapping, SegmentSize: 1 << 10}
	const m = 4 << 10
	alg, err := Get("naive")
	if err != nil {
		t.Fatal(err)
	}
	res, err := auditedRunOnce(spec, cluster.SessionConfig{CryptoPool: cryptoPool(t, 2)}, cluster.Op{Algo: alg, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	for r, pm := range res.PerRank {
		if pm.EncRounds != 1 {
			t.Fatalf("rank %d: EncRounds = %d, want 1", r, pm.EncRounds)
		}
		if pm.EncSegments != 4 {
			t.Fatalf("rank %d: EncSegments = %d, want 4 (m=%d, segment=%d)",
				r, pm.EncSegments, m, spec.SegmentSize)
		}
		wantDecSegs := pm.DecRounds * 4
		if pm.DecSegments != wantDecSegs {
			t.Fatalf("rank %d: DecSegments = %d, want %d", r, pm.DecSegments, wantDecSegs)
		}
	}
}

// The wire eavesdropper's view stays ciphertext-only when segmentation
// splits every sealed payload on real TCP sockets.
func TestSegmentedTCPWireClean(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping, SegmentSize: 512}
	const m = 2048
	alg, err := Get("c-ring")
	if err != nil {
		t.Fatal(err)
	}
	res, err := auditedRunOnce(spec, cluster.SessionConfig{Engine: cluster.EngineTCP, CryptoPool: cryptoPool(t, 2)},
		cluster.Op{Algo: alg, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
		t.Fatal(err)
	}
	if cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
		t.Fatalf("audit violations: %v", cluster.MessageTotals(res.PerRank).Violations)
	}
	for r := 0; r < spec.P; r++ {
		if res.Sniffer.Contains(block.FillPattern(r, m)) {
			t.Fatalf("rank %d plaintext visible on the wire", r)
		}
	}
	// Segmented framing costs wire bytes: the sniffer must have seen at
	// least the logical inter-node volume.
	if res.Sniffer.Total() == 0 {
		t.Fatal("sniffer saw no inter-node bytes")
	}
}

// Tampering with a single segment of a multi-segment ciphertext in
// flight must abort the collective: segmented blobs authenticate as a
// unit.
func TestSegmentedTamperDetectedEndToEnd(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping, SegmentSize: 256}
	const m = 1024
	alg, err := Get("naive")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte of segment 2's ciphertext: past the framing header (4
	// segments) and two whole segments, then past the segment's nonce.
	const at = 8 + 4*4 + 2*(256+seal.Overhead) + seal.NonceSize + 100
	tampered, err := tamperedRun(t, spec, cluster.SessionConfig{CryptoPool: cryptoPool(t, 2)},
		cluster.Op{Algo: alg, MsgSize: m}, at)
	if tampered == 0 {
		t.Fatal("the plan never corrupted a frame")
	}
	if err == nil {
		t.Fatal("tampered segment went undetected")
	}
}
