package encag

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// Pipelined sessions must gather byte-identically to serial ones on
// both real engines, for the ring and hierarchical schemes at 4 ranks on
// 2 nodes and for o-ring at one rank per node (forwarded ciphertext).
// TCP actually streams (the pipeline metric families move) and keeps its
// wire free of plaintext; chan ignores the option and sends every
// message whole.
func TestSessionPipelining(t *testing.T) {
	const msgSize = 64 << 10
	shapes := []struct {
		spec Spec
		algs []Alg
	}{
		{Spec{Procs: 4, Nodes: 2}, []Alg{AlgORing, AlgCRing, AlgHS1, AlgHS2}},
		{Spec{Procs: 4, Nodes: 4}, []Alg{AlgORing}},
	}
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		for _, sh := range shapes {
			name := fmt.Sprintf("%s/%d-%d", engine, sh.spec.Procs, sh.spec.Nodes)
			serial, err := OpenSession(context.Background(), sh.spec, WithEngine(engine))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			piped, err := OpenSession(context.Background(), sh.spec, WithEngine(engine),
				WithPipelining(true))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, algo := range sh.algs {
				want, err := serial.Run(context.Background(), algo, msgSize)
				if err != nil {
					t.Fatalf("%s/%s serial: %v", name, algo, err)
				}
				got, err := piped.Run(context.Background(), algo, msgSize)
				if err != nil {
					t.Fatalf("%s/%s pipelined: %v", name, algo, err)
				}
				if !got.SecurityOK {
					t.Fatalf("%s/%s pipelined: security violations %v", name, algo, got.Violations)
				}
				for r := range got.Gathered {
					for o := range got.Gathered[r] {
						if !bytes.Equal(got.Gathered[r][o], want.Gathered[r][o]) {
							t.Fatalf("%s/%s: rank %d origin %d diverges from the serial gather", name, algo, r, o)
						}
					}
				}
				if !piped.WireClean(msgSize) {
					t.Fatalf("%s/%s: plaintext pattern observed on the pipelined wire", name, algo)
				}
			}
			// Close drains the send schedulers: a TCP sender counts a
			// segment after its write returns, possibly after the receiver
			// finished.
			serial.Close()
			piped.Close()
			snap := piped.Snapshot()
			if engine == EngineChan {
				if snap.PipelineSegmentsSent != 0 || snap.PipelineStreams != 0 {
					t.Fatalf("%s: pipelined session streamed %d segments over %d streams, want none",
						name, snap.PipelineSegmentsSent, snap.PipelineStreams)
				}
				continue
			}
			if snap.PipelineStreams == 0 {
				t.Fatalf("%s: pipelined session never streamed", name)
			}
			if snap.PipelineSegmentsSent == 0 || snap.PipelineSegmentsSent != snap.PipelineInlineOpens {
				t.Fatalf("%s: segment counters sent=%d recv=%d", name,
					snap.PipelineSegmentsSent, snap.PipelineInlineOpens)
			}
			if sn := serial.Snapshot(); sn.PipelineStreams != 0 {
				t.Fatalf("%s: serial session streamed %d times", name, sn.PipelineStreams)
			}
		}
	}
}

// Pipelining is session-level: per-operation use is rejected.
func TestSessionPipeliningOptionErrors(t *testing.T) {
	s, err := OpenSession(context.Background(), Spec{Procs: 2, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), "hs1", 64, WithPipelining(true)); err == nil {
		t.Fatal("per-op WithPipelining accepted")
	}
}
