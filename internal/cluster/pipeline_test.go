package cluster

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/seal"
	"encag/internal/wire"
)

// pipeSpec/pipeSize: a world and payload large enough that every
// inter-rank exchange qualifies for segment streaming (64 KiB is well
// past the default minimum stream size and splits into several
// segments under any adaptive plan).
const pipeSize = 64 << 10

// ringEncrypted is the encrypted ring all-gather the pipeline tests
// drive: every hop re-seals the forwarded chunk for its one send, so
// each of the P-1 rounds puts one fresh segment stream per inter-node
// hop on the wire.
func ringEncrypted(p *Proc, mine block.Message) block.Message {
	result := mine.Clone()
	cur := mine
	next := (p.Rank() + 1) % p.P()
	prev := (p.Rank() - 1 + p.P()) % p.P()
	for i := 0; i < p.P()-1; i++ {
		in := p.Wait(p.SealIsend(next, false, cur.Chunks...), p.Irecv(prev))[1]
		cur = p.DecryptAll(in)
		result.Append(cur.Chunks...)
	}
	return result
}

// exchangeEncrypted is the minimal two-rank encrypted exchange used by
// the fault tests: deterministic frame numbering (rank r's stream to
// its peer is the pair's only traffic).
func exchangeEncrypted(p *Proc, mine block.Message) block.Message {
	other := 1 - p.Rank()
	in := p.Wait(p.SealIsend(other, false, mine.Chunks...), p.Irecv(other))[1]
	return p.Assemble(mine, p.DecryptAll(in))
}

func openPipelined(t *testing.T, spec Spec) *Session {
	t.Helper()
	s, err := OpenSession(spec, SessionConfig{
		Engine:     EngineTCP,
		Pipelining: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A pipelined TCP session must deliver byte-exact gathers across
// reuse, actually stream (the pipeline metric families move), and leak
// no plaintext onto the wire — segment sub-frames carry only sealed
// bytes, so the session-lifetime sniffer stays clean.
func TestPipelineTCPByteExact(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	defer s.Close()
	var results []*RealResult
	for i := 0; i < 2; i++ {
		res, err := s.Collective(context.Background(), Op{Algo: ringEncrypted, MsgSize: pipeSize})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		results = append(results, res)
	}
	// A TCP sender counts a sub-frame, and the capture records it, after
	// its write returns, which can be after the receiver has finished the
	// collective: drain the send schedulers (Close waits for them) before
	// reading sender-side counts.
	s.Close()
	for _, res := range results {
		contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
	}
	if n := s.lm.pipeStreams.Value(); n == 0 {
		t.Fatal("no segment streams started: pipelined session fell back to whole-message frames")
	}
	sent, recv := s.lm.pipeSegmentsSent.Value(), s.lm.pipeSegmentsRecv.Value()
	if sent < 2*s.lm.pipeStreams.Value() {
		t.Fatalf("segments sent %d for %d streams: streams did not split", sent, s.lm.pipeStreams.Value())
	}
	if sent != recv {
		t.Fatalf("segments sent %d != received %d on a clean run", sent, recv)
	}
	if opened := s.Snapshot().PipelineInlineOpens; opened != recv {
		t.Fatalf("segments opened %d != received %d: every segment opens as it lands", opened, recv)
	}
}

// splitEncrypt seals rank r's plaintext as two separate chunks, each
// large enough to stream on its own: the multi-chunk send shape of the
// hierarchical algorithms.
func splitEncrypt(p *Proc, mine block.Message) (block.Chunk, block.Chunk) {
	pl := mine.Chunks[0].Payload
	half := len(pl) / 2
	a := p.Encrypt(block.NewPlain(p.Rank(), pl[:half]).Chunks[0])
	b := p.Encrypt(block.NewPlain(p.Rank(), pl[half:]).Chunks[0])
	return a, b
}

// joinDecrypted reassembles the two decrypted halves into one plain
// block message for gather validation.
func joinDecrypted(origin int, dec block.Message) block.Message {
	buf := append(append([]byte(nil), dec.Chunks[0].Payload...), dec.Chunks[1].Payload...)
	return block.NewPlain(origin, buf)
}

// Mixed traffic on one directed pair — a streamed single-chunk message
// followed by two small whole-message frames — must be received in
// program order.
func TestPipelineOrderingUnderMixedTraffic(t *testing.T) {
	algo := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		small := block.NewPlain(p.Rank(), block.FillPattern(p.Rank(), 64))
		// The stream first, two small plaintext frames right behind it on
		// the same pair; receives must observe the same order.
		reqs := []Request{
			p.SealIsend(other, false, mine.Chunks...),
			p.Isend(other, small),
			p.Isend(other, small),
		}
		first := p.Recv(other)
		if !first.HasCiphertext() {
			panic("stream overtaken: first receive is not the ciphertext")
		}
		for i := 0; i < 2; i++ {
			if m := p.Recv(other); m.HasCiphertext() {
				panic("trailing small frame arrived encrypted")
			}
		}
		p.Wait(reqs...)
		return p.Assemble(mine, p.DecryptAll(first))
	}
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	defer s.Close()
	res, err := s.Collective(context.Background(), Op{Algo: algo, MsgSize: pipeSize})
	if err != nil {
		t.Fatal(err)
	}
	// The two small frames cross nodes in plaintext: no contract, only
	// the gather.
	if err := ValidateGatherV(spec, block.UniformSizes(spec.P, pipeSize), res.Results, true); err != nil {
		t.Fatal(err)
	}
	s.Close() // drains the send schedulers: sender-side counts are final
	if streams := s.lm.pipeStreams.Value(); streams != 2 {
		t.Fatalf("%d streams, want one per rank", streams)
	}
	if whole := pairSum(s.lm.framesSent) - s.lm.pipeSegmentsSent.Value(); whole != 4 {
		t.Fatalf("%d whole frames, want two per rank", whole)
	}
}

// gatherCountingFrames runs algo once on a fresh pipelined two-rank session
// and checks that it gathered byte-exact with streams streamed messages
// and every other send one whole frame: frames sent = segments + whole.
func gatherCountingFrames(t *testing.T, algo Algorithm, streams, whole int64) {
	t.Helper()
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	defer s.Close()
	res, err := s.Collective(context.Background(), Op{Algo: algo, MsgSize: pipeSize})
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // drains the send schedulers: sender-side counts are final
	contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
	if got := s.lm.pipeStreams.Value(); got != streams {
		t.Fatalf("%d streams, want %d", got, streams)
	}
	segs := s.lm.pipeSegmentsSent.Value()
	if got := pairSum(s.lm.framesSent) - segs; got != whole {
		t.Fatalf("%d whole frames beside %d sub-frames, want %d", got, segs, whole)
	}
}

// A message of two freshly sealed chunks, each large enough to stream
// alone, goes out as one whole frame with no sub-frames, byte-exact.
func TestPipelineMultiChunkByteExact(t *testing.T) {
	gatherCountingFrames(t, func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ctA, ctB := splitEncrypt(p, mine)
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ctA, ctB}}, other)
		if len(in.Chunks) != 2 {
			panic("multi-chunk message lost chunks")
		}
		return p.Assemble(mine, joinDecrypted(other, p.DecryptAll(in)))
	}, 0, 2)
}

// A forwarded multi-segment blob goes out as one whole frame: each rank
// streams its fresh ciphertext for a relay, the peer sends the received
// blob back unopened, and it returns as one frame and opens to the
// sender's own bytes.
func TestPipelineForwardedBlobByteExact(t *testing.T) {
	gatherCountingFrames(t, func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		in := p.Wait(p.SealIsend(other, true, mine.Chunks...), p.Irecv(other))[1]
		if in.Chunks[0].Payload == nil {
			panic("a stream received for a relay kept no blob")
		}
		fwd := block.Message{Chunks: []block.Chunk{{Enc: true, Blocks: in.Chunks[0].Blocks, Payload: in.Chunks[0].Payload}}}
		back := p.SendRecv(other, fwd, other)
		if !bytes.Equal(p.DecryptAll(back).Chunks[0].Payload, mine.Chunks[0].Payload) {
			panic("forwarded blob came back as different bytes")
		}
		return p.Assemble(mine, p.DecryptAll(in))
	}, 2, 2)
}

// A chunk its receiver opened in place has no ciphertext left to send:
// forwarding it, when its sender did not seal it for a relay, fails the
// operation at the forwarding rank instead of putting an empty
// ciphertext on the wire, and the session serves the next operation.
func TestPipelineForwardingAnInPlaceChunkFails(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: 5 * time.Second}
	s := openPipelined(t, spec)
	defer s.Close()
	_, err := s.Collective(context.Background(), Op{MsgSize: pipeSize, Algo: func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		in := p.Wait(p.SealIsend(other, false, mine.Chunks...), p.Irecv(other))[1]
		back := p.SendRecv(other, in, other)
		return p.Assemble(mine, p.DecryptAll(back))
	}})
	if err == nil || !strings.Contains(err.Error(), "opened in place") {
		t.Fatalf("forwarding an in-place chunk: %v, want the forward refused", err)
	}
	if s.Err() != nil {
		t.Fatalf("the refused forward broke the session: %v", s.Err())
	}
	res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize})
	if err != nil {
		t.Fatal(err)
	}
	contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
}

// A corrupted segment index on a sub-frame fails only its operation: the
// index still parses (65 of 128 segments) but is not the next one the
// stream expects. Whatever the sender still writes of the stream is read
// past as stragglers, and the mesh serves the next operation byte-exact.
func TestPipelineCorruptSubFrameIndexFailsOp(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, SegmentSize: 512, RecvTimeout: 5 * time.Second}
	s := openPipelined(t, spec)
	defer s.Close()
	// Frame 1 on the 0->1 pair is segment 1 of 128; byte 27 is the low
	// byte of its index (prefix 20, stream id 4), flipped to 65.
	plan := &fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 1, Frame: 1, Kind: fault.Corrupt, Offset: 27},
	}}
	_, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize, Plan: plan})
	var re *RankError
	if !errors.As(err, &re) || re.Op != "recv" || !strings.Contains(err.Error(), "segment 65 of 128") {
		t.Fatalf("corrupted segment index yielded %v, want a recv rank error for segment 65", err)
	}
	if s.Err() != nil {
		t.Fatalf("index corruption poisoned the mesh: %v", s.Err())
	}
	res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize})
	if err != nil {
		t.Fatalf("follow-up collective failed: %v", err)
	}
	contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
}

// Corrupting one in-flight segment on the TCP wire fails exactly that
// operation closed: the receiver's per-segment authentication rejects
// the bytes where they land, in the plaintext buffer a 1 MiB stream
// opens in place. Whether the corrupted sub-frame is the first (behind
// the chunk metadata), a middle one, or the last one's final byte — a
// tag byte that lands in the slack past the plaintext — the op fails
// with an open error and delivers nothing, and the mesh serves the next
// operation byte-exact.
func TestPipelineTCPCorruptSegmentFailsClosed(t *testing.T) {
	const m = 1 << 20
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: 5 * time.Second}
	s := openPipelined(t, spec)
	defer s.Close()
	k := s.Sealer().StreamSegments(m)
	if k < 3 || m%k != 0 {
		t.Fatalf("a 1 MiB stream cuts into %d segments, want at least 3 of one size", k)
	}
	// A sub-frame without metadata puts its payload 37 bytes in.
	const payloadAt = 37
	segLen := m/k + seal.Overhead
	for _, c := range []struct {
		name          string
		frame, offset int
	}{
		{"first", 0, 4 << 10},
		{"middle", k / 2, payloadAt + seal.NonceSize + 100},
		{"last tag", k - 1, payloadAt + segLen - 1},
	} {
		plan := &fault.Plan{Rules: []fault.Rule{
			{Src: 0, Dst: 1, Frame: c.frame, Kind: fault.Corrupt, Offset: c.offset},
		}}
		res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: m, Plan: plan})
		var re *RankError
		if !errors.As(err, &re) || re.Op != "open" || re.Rank != 1 {
			t.Fatalf("%s segment corrupted: %v, want an open error at rank 1", c.name, err)
		}
		if res != nil {
			t.Fatalf("%s segment corrupted: the failed op delivered a result", c.name)
		}
		if s.Err() != nil {
			t.Fatalf("%s segment corrupted: the session broke: %v", c.name, s.Err())
		}
		res, err = s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: m})
		if err != nil {
			t.Fatalf("after the %s segment: %v", c.name, err)
		}
		contract(t, s, block.UniformSizes(spec.P, m), res)
	}
}

// A dropped segment sub-frame is a transient transport fault: the
// sender reconnects and resends it, the receiver's sequence gate
// dedups, and the operation completes byte-exact.
func TestPipelineTCPDropSegmentRecovers(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	defer s.Close()
	plan := &fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 1, Frame: 2, Kind: fault.Drop},
	}}
	res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize, Plan: plan})
	if err != nil {
		t.Fatalf("dropped segment did not recover: %v", err)
	}
	contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
	if s.lm.reconnects.Value() == 0 {
		t.Fatal("drop recovered without a reconnect: the fault never fired")
	}
}

// A partial write that cuts a sub-frame inside its payload is resent
// whole on a fresh conn, and the receiver takes the resend: the pair's
// sequence gate moves, and a first sub-frame installs its stream, only
// once the payload has been read in full. Cut inside segment 0 (the
// first sub-frame, metadata and all) and inside segment 3, the op
// completes byte-exact.
func TestPipelinePartialWriteInsideSegmentRecovers(t *testing.T) {
	// 8 KiB segments: the 64 KiB message streams as 8 sub-frames, each
	// header far shorter than the 4 KiB kept of the cut one.
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, SegmentSize: 8 << 10, RecvTimeout: 5 * time.Second}
	for _, frame := range []int{0, 3} {
		s := openPipelined(t, spec)
		plan := &fault.Plan{Rules: []fault.Rule{
			{Src: 0, Dst: 1, Frame: frame, Kind: fault.PartialWrite, Keep: 4 << 10},
		}}
		res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize, Plan: plan})
		if err != nil {
			t.Fatalf("cut inside segment %d: %v", frame, err)
		}
		contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
		s.Close()
		if n := s.lm.resends.Value(); n < 1 {
			t.Fatalf("cut inside segment %d: %d resends, the fault never fired", frame, n)
		}
		if sent, recv := pairSum(s.lm.framesSent), pairSum(s.lm.framesRecv); sent != recv {
			t.Fatalf("cut inside segment %d: %d frames sent, %d received", frame, sent, recv)
		}
	}
}

// Random fault plans against pipelined traffic must keep the existing
// contract: complete byte-exact, fail the op with a structured error,
// or break the session loudly — never deliver wrong bytes, never hang.
func TestPipelineTCPRandomPlans(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: 2 * time.Second}
	for seed := int64(1); seed <= 5; seed++ {
		s := openPipelined(t, spec)
		res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize,
			Plan: fault.Random(seed, 2, 6)})
		switch {
		case err == nil:
			contract(t, s, block.UniformSizes(spec.P, pipeSize), res)
		default:
			var re *RankError
			if !errors.As(err, &re) && !errors.Is(err, ErrSessionBroken) {
				t.Fatalf("seed %d: unstructured failure %v", seed, err)
			}
		}
		s.Close()
	}
}

// Only SealIsend streams, and only where sealing can overlap the wire:
// with pipelining on, to another node (a socket pair), at least
// defaultMinStreamBytes of plaintext. A same-node SealIsend, a smaller
// one and a chunk sealed by Encrypt go whole; with pipelining off
// nothing streams. The stream threshold is a constant, not
// configuration.
func TestPipelineQualification(t *testing.T) {
	if defaultMinStreamBytes != 16<<10 {
		t.Fatalf("streaming threshold moved: %d", defaultMinStreamBytes)
	}
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping} // 0->1 stays on node 0, 0->2 crosses
	algo := func(p *Proc, mine block.Message) block.Message {
		switch p.Rank() {
		case 0:
			small := block.NewPlain(0, mine.Chunks[0].Payload[:defaultMinStreamBytes-1])
			p.Wait(
				p.SealIsend(2, false, mine.Chunks...),
				p.SealIsend(1, false, mine.Chunks...),
				p.SealIsend(2, false, small.Chunks...),
				p.Isend(2, block.Message{Chunks: []block.Chunk{p.Encrypt(mine.Chunks...)}}),
			)
		case 1:
			p.DecryptAll(p.Recv(0))
		case 2:
			for i := 0; i < 3; i++ {
				p.DecryptAll(p.Recv(0))
			}
		}
		return mine
	}
	for _, pipe := range []bool{true, false} {
		s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP, Pipelining: pipe})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Collective(context.Background(), Op{Algo: algo, MsgSize: pipeSize}); err != nil {
			t.Fatal(err)
		}
		s.Close() // drains the send schedulers: sender-side counts are final
		want := int64(0)
		if pipe {
			want = 1
		}
		if got := s.lm.pipeStreams.Value(); got != want {
			t.Fatalf("pipelining %v: %d streams, want %d", pipe, got, want)
		}
	}
}

// streamRecv takes the segments of its stream in index order only,
// opening each as it lands, and delivers the plaintext once the last one
// authenticated: opened in place with no blob, or, relayed, beside the
// blob it kept. Another stream's sub-frame, a skipped or repeated index
// and a mis-sized payload are refused.
func TestStreamRecvAssembly(t *testing.T) {
	slr, err := seal.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	slr.SetSegmentSize(8 << 10)
	pt := block.FillPattern(3, 64<<10)
	aad := []byte("stream-recv")
	st := slr.NewSealStream([][]byte{pt}, aad)
	if st == nil {
		t.Fatal("no seal stream")
	}
	for _, relay := range []bool{false, true} {
		os, err := slr.NewOpenStream(st.Header(), aad)
		if err != nil {
			t.Fatal(err)
		}
		sr := &streamRecv{id: 7, os: os}
		if relay {
			sr.blob = make([]byte, os.SealedLen())
			os.KeepSealed(sr.blob)
		}
		k := uint32(st.K())
		sub := func(stream, i uint32) wire.SegFrame {
			return wire.SegFrame{Stream: stream, Index: i, Count: k, PayloadLen: os.SegmentLen(int(i))}
		}
		for _, bad := range []wire.SegFrame{sub(7, 1), sub(8, 0), {Stream: 7, Count: k, PayloadLen: 1}} {
			if _, _, err := sr.slot(bad); err == nil {
				t.Fatalf("relay %v: sub-frame %+v accepted as the stream's first", relay, bad)
			}
		}
		for i := uint32(0); i < k; i++ {
			nonce, body, err := sr.slot(sub(7, i))
			if err != nil {
				t.Fatalf("relay %v: segment %d: %v", relay, i, err)
			}
			seg, err := st.Segment(int(i))
			if err != nil {
				t.Fatal(err)
			}
			copy(nonce, seg)
			copy(body, seg[seal.NonceSize:])
			c, done, err := sr.open()
			if err != nil || done != (i == k-1) {
				t.Fatalf("relay %v: segment %d: done %v, err %v", relay, i, done, err)
			}
			if _, _, err := sr.slot(sub(7, i)); err == nil {
				t.Fatalf("relay %v: segment %d accepted twice", relay, i)
			}
			if !done {
				continue
			}
			if !bytes.Equal(c.Opened, pt) || cap(c.Opened) != len(pt) {
				t.Fatalf("relay %v: assembled plaintext diverged", relay)
			}
			if !relay {
				if c.Payload != nil {
					t.Fatal("an in-place stream delivered a blob")
				}
				continue
			}
			if got, _, err := slr.OpenSegmented(c.Payload, aad); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("relayed blob does not open: %v", err)
			}
		}
	}
}
