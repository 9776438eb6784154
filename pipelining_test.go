package encag

import (
	"bytes"
	"context"
	"testing"
)

// Pipelined sessions must gather byte-identically to serial ones on
// both real engines. TCP actually streams (the pipeline metric families
// move) and keeps its wire free of plaintext; chan ignores the option
// and sends every message whole.
func TestSessionPipelining(t *testing.T) {
	spec := Spec{Procs: 4, Nodes: 2}
	const msgSize = 64 << 10
	for _, engine := range []Engine{EngineChan, EngineTCP} {
		serial, err := OpenSession(context.Background(), spec, WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		piped, err := OpenSession(context.Background(), spec, WithEngine(engine),
			WithPipelining(true))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for _, algo := range []Alg{AlgORing, AlgHS1, AlgHS2} {
			want, err := serial.Run(context.Background(), algo, msgSize)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", engine, algo, err)
			}
			got, err := piped.Run(context.Background(), algo, msgSize)
			if err != nil {
				t.Fatalf("%s/%s pipelined: %v", engine, algo, err)
			}
			if !got.SecurityOK {
				t.Fatalf("%s/%s pipelined: security violations %v", engine, algo, got.Violations)
			}
			for r := range got.Gathered {
				for o := range got.Gathered[r] {
					if !bytes.Equal(got.Gathered[r][o], want.Gathered[r][o]) {
						t.Fatalf("%s/%s: rank %d origin %d diverges from the serial gather", engine, algo, r, o)
					}
				}
			}
		}
		// Close drains the send schedulers: a TCP sender counts a segment
		// after its write returns, possibly after the receiver finished.
		serial.Close()
		piped.Close()
		snap := piped.Snapshot()
		if engine == EngineChan {
			if snap.PipelineSegmentsSent != 0 || snap.PipelineStreams != 0 {
				t.Fatalf("chan: pipelined session streamed %d segments over %d streams, want none",
					snap.PipelineSegmentsSent, snap.PipelineStreams)
			}
			continue
		}
		if snap.PipelineStreams == 0 {
			t.Fatalf("%s: pipelined session never streamed", engine)
		}
		if snap.PipelineMsgs == 0 {
			t.Fatalf("%s: pipelined session sent no pipelined messages", engine)
		}
		// The hierarchical runs send multi-chunk messages, so the
		// session must have opened more per-chunk streams than it sent
		// pipelined messages; equal counters would mean multi-chunk
		// sends fell back to one stream per message.
		if snap.PipelineStreams <= snap.PipelineMsgs {
			t.Fatalf("%s: %d per-chunk streams over %d pipelined messages; multi-chunk sends are not streaming",
				engine, snap.PipelineStreams, snap.PipelineMsgs)
		}
		if snap.PipelineSegmentsSent == 0 || snap.PipelineSegmentsSent != snap.PipelineSegmentsRecv {
			t.Fatalf("%s: segment counters sent=%d recv=%d", engine,
				snap.PipelineSegmentsSent, snap.PipelineSegmentsRecv)
		}
		if !piped.WireClean(msgSize) {
			t.Fatal("plaintext pattern observed on the pipelined wire")
		}
		if sn := serial.Snapshot(); sn.PipelineStreams != 0 {
			t.Fatalf("%s: serial session streamed %d times", engine, sn.PipelineStreams)
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
