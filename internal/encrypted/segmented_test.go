package encrypted

import (
	"fmt"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/seal"
	"encag/internal/testkit"
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
			t.Run(fmt.Sprintf("%d-%d/%s", spec.P, spec.N, name), func(t *testing.T) {
				s, res := testkit.Once(t, spec, cfg, cluster.Op{Algo: alg, MsgSize: m})
				testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
				var segs int
				for r, pm := range res.PerRank {
					segs += pm.EncSegments
					if pm.EncSegments < pm.EncRounds {
						t.Fatalf("rank %d: EncSegments %d < EncRounds %d", r, pm.EncSegments, pm.EncRounds)
					}
					if pm.DecSegments < pm.DecRounds {
						t.Fatalf("rank %d: DecSegments %d < DecRounds %d", r, pm.DecSegments, pm.DecRounds)
					}
				}
				if segs == 0 {
					t.Fatal("no segments counted")
				}
			})
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
	_, res := testkit.Once(t, spec, cluster.SessionConfig{CryptoPool: cryptoPool(t, 2)}, cluster.Op{Algo: alg, MsgSize: m})
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
	s, res := testkit.Once(t, spec, cluster.SessionConfig{Engine: cluster.EngineTCP, CryptoPool: cryptoPool(t, 2)},
		cluster.Op{Algo: alg, MsgSize: m})
	testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
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

// On a pipelined TCP session every seal still draws one nonce per
// sealed segment: a chunk sealed for one send streams and is sealed
// segment by segment by its send loop, once, and every ciphertext sent
// more than once (o-rd's cached seal, RD forwarding in naive-rd, hs1 and
// c-rd, the all-reduce broadcast) is sealed whole, once. Every gather
// and reduction is byte-exact.
func TestSealOnceOnPipelinedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names := append(Names(), "allreduce-hs")
	cfg := cluster.SessionConfig{Engine: cluster.EngineTCP, Pipelining: true}
	for _, spec := range []cluster.Spec{
		{P: 4, N: 2, Mapping: cluster.BlockMapping},
		{P: 8, N: 4, Mapping: cluster.BlockMapping},
		{P: 8, N: 8, Mapping: cluster.BlockMapping},
	} {
		for _, m := range []int64{64 << 10, 1 << 20} {
			for _, name := range names {
				alg := AllreduceHS(XOR)
				if name != "allreduce-hs" {
					alg, _ = Get(name)
				}
				t.Run(fmt.Sprintf("%d-%d/%d/%s", spec.P, spec.N, m, name), func(t *testing.T) {
					s, res := testkit.Once(t, spec, cfg, cluster.Op{Algo: alg, MsgSize: m})
					if name == "allreduce-hs" {
						checkAllreduce(t, spec, m, res)
					} else {
						testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
					}
				})
			}
		}
	}
}
