package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/encrypted"
)

// A pipelined receiver opens each streamed segment in the plaintext
// buffer it lands in and keeps no ciphertext, except where it relays the
// sealed chunk on: O-Ring's entry process alone on its node in its ring
// (c-ring at three or more nodes, o-ring at one rank per node). On two
// shapes, each running one collective that relays and one whose every
// receiver opens, a pipelined TCP session gathers byte-exact against a
// serial one and keeps its wire clean. Every stream of the first kind is
// relayed and none of the second, every streamed segment opens as it
// lands, and each rank's DecSegments is what the sealers of the chunks
// it opened charged to EncSegments.
func TestPipelinedRelayAndInPlaceStreams(t *testing.T) {
	const m = 64 << 10
	ring := func(name string) cluster.Algorithm {
		alg, err := encrypted.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	// column: the ring of one rank per node a relaying ring runs over;
	// each member opens every other member's one seal.
	column := func(spec cluster.Spec, r int) []int {
		var out []int
		for o := 0; o < spec.P; o++ {
			if o != r && o%spec.Ell() == r%spec.Ell() {
				out = append(out, o)
			}
		}
		return out
	}
	// pred: o-ring at two ranks per node, where each entry process opens
	// what its ring predecessor, the exit of the node before, sealed.
	pred := func(spec cluster.Spec, r int) []int { return []int{(r - 1 + spec.P) % spec.P} }
	type run struct {
		name    string
		alg     cluster.Algorithm
		relay   bool
		senders func(cluster.Spec, int) []int // whose seals rank r opens; nil: not checked
	}
	shapes := []struct {
		spec cluster.Spec
		runs []run
	}{
		{cluster.Spec{P: 6, N: 3, Mapping: cluster.BlockMapping}, []run{
			{"c-ring", ring("c-ring"), true, column},
			{"o-ring", ring("o-ring"), false, pred},
		}},
		{cluster.Spec{P: 4, N: 4, Mapping: cluster.BlockMapping}, []run{
			{"o-ring", ring("o-ring"), true, column},
			{"allreduce", encrypted.AllreduceHS(encrypted.XOR), false, nil},
		}},
	}
	for _, sh := range shapes {
		spec := sh.spec
		t.Run(fmt.Sprintf("%d-%d", spec.P, spec.N), func(t *testing.T) {
			serial, err := cluster.OpenSession(spec, cluster.SessionConfig{Engine: cluster.EngineTCP})
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Close()
			piped, err := cluster.OpenSession(spec, cluster.SessionConfig{Engine: cluster.EngineTCP, Pipelining: true})
			if err != nil {
				t.Fatal(err)
			}
			defer piped.Close()
			for _, rn := range sh.runs {
				want, err := serial.Collective(context.Background(), cluster.Op{Algo: rn.alg, MsgSize: m})
				if err != nil {
					t.Fatalf("%s serial: %v", rn.name, err)
				}
				before := piped.Snapshot()
				got, err := piped.Collective(context.Background(), cluster.Op{Algo: rn.alg, MsgSize: m})
				if err != nil {
					t.Fatalf("%s pipelined: %v", rn.name, err)
				}
				// A sender counts a stream, and whether it is relayed, before
				// it writes the stream's first sub-frame: final once the op is.
				after := piped.Snapshot()
				streams := after.PipelineStreams - before.PipelineStreams
				relayed := after.PipelineRelayStreams - before.PipelineRelayStreams
				wantRelayed := int64(0)
				if rn.relay {
					wantRelayed = streams
				}
				if streams == 0 || relayed != wantRelayed {
					t.Fatalf("%s: %d streams, %d relayed; want some, %d relayed", rn.name, streams, relayed, wantRelayed)
				}
				if v := cluster.MessageTotals(got.PerRank); v.PlainInterMsgs != 0 {
					t.Fatalf("%s: plaintext crossed nodes: %v", rn.name, v.Violations)
				}
				for r := range got.Results {
					if !sameMessage(got.Results[r], want.Results[r]) {
						t.Fatalf("%s: rank %d diverges from the serial run", rn.name, r)
					}
				}
				if rn.senders == nil {
					continue
				}
				opened := 0
				for r, pm := range got.PerRank {
					charged := 0
					for _, o := range rn.senders(spec, r) {
						charged += got.PerRank[o].EncSegments
					}
					if pm.DecSegments != charged {
						t.Fatalf("%s: rank %d opened %d segments, its senders sealed %d", rn.name, r, pm.DecSegments, charged)
					}
					opened += pm.DecSegments
				}
				if opened == 0 {
					t.Fatalf("%s: no rank opened a segment", rn.name)
				}
			}
			for r := 0; r < spec.P; r++ {
				if piped.Sniffer().Contains(block.FillPattern(r, m)) {
					t.Fatalf("rank %d plaintext on the pipelined wire", r)
				}
			}
			piped.Close() // drains the send schedulers: sender-side counts are final
			if snap := piped.Snapshot(); snap.PipelineSegmentsSent == 0 || snap.PipelineSegmentsSent != snap.PipelineInlineOpens {
				t.Fatalf("segments sent %d, opened as they landed %d", snap.PipelineSegmentsSent, snap.PipelineInlineOpens)
			}
		})
	}
}

// sameMessage reports whether two results hold the same blocks with the
// same bytes.
func sameMessage(a, b block.Message) bool {
	if len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		ca, cb := a.Chunks[i], b.Chunks[i]
		if ca.Enc != cb.Enc || len(ca.Blocks) != len(cb.Blocks) || !bytes.Equal(ca.Payload, cb.Payload) {
			return false
		}
		for j := range ca.Blocks {
			if ca.Blocks[j] != cb.Blocks[j] {
				return false
			}
		}
	}
	return true
}
