package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
	"encag/internal/metrics"
	"encag/internal/seal"
)

// pipeSpec/pipeSize: a world and payload large enough that every
// inter-rank exchange qualifies for segment streaming (64 KiB is well
// past the default minimum stream size and splits into several
// segments under any adaptive plan).
const pipeSize = 64 << 10

// ringEncrypted is the encrypted ring all-gather the pipeline tests
// drive: every hop re-seals the forwarded chunk, so each of the P-1
// rounds puts one fresh segment stream per rank on the wire.
func ringEncrypted(p *Proc, mine block.Message) block.Message {
	result := mine.Clone()
	cur := mine
	next := (p.Rank() + 1) % p.P()
	prev := (p.Rank() - 1 + p.P()) % p.P()
	for i := 0; i < p.P()-1; i++ {
		ct := p.Encrypt(cur.Chunks...)
		in := p.SendRecv(next, block.Message{Chunks: []block.Chunk{ct}}, prev)
		cur = p.DecryptAll(in)
		result = block.Concat(result, cur)
	}
	return result
}

// exchangeEncrypted is the minimal two-rank encrypted exchange used by
// the fault tests: deterministic frame numbering (rank r's stream to
// its peer is the pair's only traffic).
func exchangeEncrypted(p *Proc, mine block.Message) block.Message {
	other := 1 - p.Rank()
	ct := p.Encrypt(mine.Chunks...)
	in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
	return block.Concat(mine, p.DecryptAll(in))
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
	for i := 0; i < 2; i++ {
		res, err := s.Collective(context.Background(), Op{Algo: ringEncrypted, MsgSize: pipeSize})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !res.Audit.Clean() {
			t.Fatalf("iteration %d: audit violations %v", i, res.Audit.Violations)
		}
	}
	// A TCP sender counts a sub-frame after its write returns, which can
	// be after the receiver has finished the collective: drain the send
	// schedulers (Close waits for them) before reading sender-side counts.
	s.Close()
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
	if opened := s.lm.pipeInlineOpens.Value(); opened != recv {
		t.Fatalf("segments opened %d != received %d: every segment opens as it lands", opened, recv)
	}
	if s.Sniffer().Total() == 0 {
		t.Fatal("sniffer captured nothing")
	}
	for r := 0; r < spec.P; r++ {
		if s.Sniffer().Contains(block.FillPattern(r, pipeSize)) {
			t.Fatalf("rank %d plaintext visible on the pipelined wire", r)
		}
	}
}

// splitEncrypt seals rank r's plaintext as two separate chunks (each
// half qualifies for its own segment stream), the multi-chunk send
// shape of the hierarchical algorithms.
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

// Mixed traffic on one directed pair — a pipelined multi-chunk message
// (two per-chunk streams on the same link) followed by small
// whole-message frames — must be received in program order.
func TestPipelineOrderingUnderMixedTraffic(t *testing.T) {
	algo := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ctA, ctB := splitEncrypt(p, mine)
		small := block.NewPlain(p.Rank(), block.FillPattern(p.Rank(), 64))
		// Multi-chunk stream first, two small plaintext frames right
		// behind it on the same pair; receives must observe the same
		// order.
		reqs := []Request{
			p.Isend(other, block.Message{Chunks: []block.Chunk{ctA, ctB}}),
			p.Isend(other, small),
			p.Isend(other, small),
		}
		first := p.Recv(other)
		if !first.HasCiphertext() {
			panic("stream overtaken: first receive is not the ciphertext")
		}
		if len(first.Chunks) != 2 {
			panic("multi-chunk message lost chunks in assembly")
		}
		for i := 0; i < 2; i++ {
			if m := p.Recv(other); m.HasCiphertext() {
				panic("trailing small frame arrived encrypted")
			}
		}
		p.Wait(reqs...)
		return block.Concat(mine, joinDecrypted(other, p.DecryptAll(first)))
	}
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	defer s.Close()
	res, err := s.Collective(context.Background(), Op{Algo: algo, MsgSize: pipeSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
		t.Fatal(err)
	}
	if streams, msgs := s.lm.pipeStreams.Value(), s.lm.pipeMsgs.Value(); streams != 2*msgs || msgs == 0 {
		t.Fatalf("%d per-chunk streams over %d pipelined messages, want 2 per message", streams, msgs)
	}
}

// A multi-chunk message mixing two stream-worthy sealed chunks with one
// tiny inline sealed chunk must arrive byte-exact, with the metric
// families showing multiple per-chunk streams per pipelined message
// plus the inline chunk.
func TestPipelineMultiChunkByteExact(t *testing.T) {
	const tiny = 64
	algo := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ctA, ctB := splitEncrypt(p, mine)
		ctTiny := p.Encrypt(block.NewPlain(p.Rank(), block.FillPattern(p.Rank(), tiny)).Chunks[0])
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ctA, ctB, ctTiny}}, other)
		if len(in.Chunks) != 3 {
			panic("multi-chunk message lost chunks in assembly")
		}
		dec := p.DecryptAll(in)
		if !bytes.Equal(dec.Chunks[2].Payload, block.FillPattern(other, tiny)) {
			panic("inline chunk decrypted to wrong bytes")
		}
		return block.Concat(mine, joinDecrypted(other, dec))
	}
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	s := openPipelined(t, spec)
	res, err := s.Collective(context.Background(), Op{Algo: algo, MsgSize: pipeSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
		t.Fatal(err)
	}
	s.Close() // drains the send schedulers: sender-side counts are final
	msgs := s.lm.pipeMsgs.Value()
	if msgs == 0 {
		t.Fatal("no pipelined messages")
	}
	if streams := s.lm.pipeStreams.Value(); streams != 2*msgs {
		t.Fatalf("%d per-chunk streams over %d messages, want 2 per message", streams, msgs)
	}
	if inl := s.lm.pipeInlineChunks.Value(); inl != msgs {
		t.Fatalf("%d inline chunks over %d messages, want 1 per message", inl, msgs)
	}
	if sent, recv := s.lm.pipeSegmentsSent.Value(), s.lm.pipeSegmentsRecv.Value(); sent != recv || sent == 0 {
		t.Fatalf("segments sent %d != received %d", sent, recv)
	}
	for r := 0; r < spec.P; r++ {
		if s.Sniffer().Contains(block.FillPattern(r, pipeSize)) {
			t.Fatalf("rank %d plaintext visible on the pipelined wire", r)
		}
	}
}

// exchangeMultiChunk is the two-rank multi-chunk exchange the fault
// tests drive: each rank's message is exactly two per-chunk streams of
// deterministic segment counts (32 KiB halves split into 4 segments of
// 8 KiB each), so a frame index picks a specific chunk's segment.
func exchangeMultiChunk(p *Proc, mine block.Message) block.Message {
	other := 1 - p.Rank()
	ctA, ctB := splitEncrypt(p, mine)
	in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ctA, ctB}}, other)
	return block.Concat(mine, joinDecrypted(other, p.DecryptAll(in)))
}

// Corrupting one segment of ONE chunk stream of a multi-chunk pipelined
// message must fail exactly that operation closed, while the mesh
// survives for a clean follow-up collective. Frame 5 on
// the 0->1 pair is the second chunk's second segment sub-frame (frames
// 0-3 carry chunk 0, frames 4-7 chunk 1), so the fault lands inside the
// sibling stream, not the first.
func TestPipelineMultiChunkCorruptOneStreamFailsClosed(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: 5 * time.Second}
	s := openPipelined(t, spec)
	defer s.Close()
	plan := &fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 1, Frame: 5, Kind: fault.Corrupt, Offset: 100},
	}}
	_, err := s.Collective(context.Background(), Op{Algo: exchangeMultiChunk, MsgSize: pipeSize, Plan: plan})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("corrupted chunk stream yielded %v, want a structured rank error", err)
	}
	if re.Op != "open" && re.Op != "recv" {
		t.Fatalf("corrupted chunk stream failed with op %q, want open or recv", re.Op)
	}
	if s.Err() != nil {
		t.Fatalf("chunk-stream corruption poisoned the mesh: %v", s.Err())
	}
	res, err := s.Collective(context.Background(), Op{Algo: exchangeMultiChunk, MsgSize: pipeSize})
	if err != nil {
		t.Fatalf("follow-up collective failed: %v", err)
	}
	if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
		t.Fatalf("follow-up gather corrupted: %v", err)
	}
}

// Corrupting one in-flight segment on the TCP wire must fail exactly
// that operation closed — the receiver's per-segment authentication
// rejects the bytes — while the mesh survives for the next collective.
func TestPipelineTCPCorruptSegmentFailsClosed(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping, RecvTimeout: 5 * time.Second}
	s := openPipelined(t, spec)
	defer s.Close()
	// Frame 1 on the 0->1 pair is the stream's second segment sub-frame
	// (no metadata section: its payload starts 41 bytes in), so offset
	// 100 lands inside the sealed segment bytes.
	plan := &fault.Plan{Rules: []fault.Rule{
		{Src: 0, Dst: 1, Frame: 1, Kind: fault.Corrupt, Offset: 100},
	}}
	_, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize, Plan: plan})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("corrupted segment yielded %v, want a structured rank error", err)
	}
	if re.Op != "open" && re.Op != "recv" {
		t.Fatalf("corrupted segment failed with op %q, want open or recv", re.Op)
	}
	if s.Err() != nil {
		t.Fatalf("segment corruption poisoned the mesh: %v", s.Err())
	}
	res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: pipeSize})
	if err != nil {
		t.Fatalf("follow-up collective failed: %v", err)
	}
	if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
		t.Fatalf("follow-up gather corrupted: %v", err)
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
	if err := ValidateGather(spec, pipeSize, res.Results, true); err != nil {
		t.Fatal(err)
	}
	if s.lm.reconnects.Value() == 0 {
		t.Fatal("drop recovered without a reconnect: the fault never fired")
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
			if verr := ValidateGather(spec, pipeSize, res.Results, true); verr != nil {
				t.Fatalf("seed %d: completed with wrong bytes: %v", seed, verr)
			}
		default:
			var re *RankError
			if !errors.As(err, &re) && !errors.Is(err, ErrSessionBroken) {
				t.Fatalf("seed %d: unstructured failure %v", seed, err)
			}
		}
		s.Close()
	}
}

// streamsForSend gates which traffic streams: nothing while pipelining
// is off, and when on a send plan that streams every qualifying sealed
// chunk — multi-chunk messages included — with the rest riding inline.
// The stream threshold is a constant, not configuration.
func TestPipelineQualification(t *testing.T) {
	if defaultMinStreamBytes != 16<<10 {
		t.Fatalf("streaming threshold moved: %d", defaultMinStreamBytes)
	}

	slr, err := seal.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{7}, 64<<10)
	st := slr.NewSealStream([][]byte{pt}, []byte("aad"))
	if st == nil {
		t.Fatal("seal stream refused a 64KiB payload")
	}
	enc := block.Chunk{Enc: true, Stream: st}
	off := &opRuntime{}
	if off.streamsForSend(block.Message{Chunks: []block.Chunk{enc}}) != nil {
		t.Fatal("streamed with pipelining off")
	}
	pc := &opRuntime{pipe: true}
	plan := pc.streamsForSend(block.Message{Chunks: []block.Chunk{enc}})
	if plan == nil || plan.streams != 1 || plan.chunks[0].stream != st {
		t.Fatalf("pending seal stream not passed through: %+v", plan)
	}
	// A multi-chunk message streams every qualifying sealed chunk — the
	// hierarchical send shape this plan exists for.
	plan = pc.streamsForSend(block.Message{Chunks: []block.Chunk{enc, enc}})
	if plan == nil || plan.streams != 2 {
		t.Fatalf("multi-chunk message did not stream both chunks: %+v", plan)
	}
	if pc.streamsForSend(block.Message{Chunks: []block.Chunk{{Payload: pt}}}) != nil {
		t.Fatal("plaintext-only message streamed")
	}
	small := block.Chunk{Enc: true, Blocks: []block.Block{{Origin: 0, Len: 100}}, Payload: make([]byte, 100)}
	if pc.streamsForSend(block.Message{Chunks: []block.Chunk{small}}) != nil {
		t.Fatal("sub-threshold blob streamed")
	}
	// Mixed: one qualifying stream plus one small sealed chunk riding
	// inline in the same plan.
	plan = pc.streamsForSend(block.Message{Chunks: []block.Chunk{enc, small}})
	if plan == nil || plan.streams != 1 || plan.chunks[1].stream != nil {
		t.Fatalf("mixed message mis-planned: %+v", plan)
	}
	// The minStream threshold compares plaintext length, not sealed blob
	// length: a blob whose framing overhead pushes it past the threshold
	// while its plaintext stays below must not stream.
	edgeSealer, err := seal.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	edgeSealer.SetSegmentSize(8 << 10)
	edgePT := int64(defaultMinStreamBytes - 4)
	edgeBlob, _, err := edgeSealer.SealSegmented([][]byte{bytes.Repeat([]byte{5}, int(edgePT))}, []byte("edge"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(edgeBlob)) < defaultMinStreamBytes {
		t.Fatalf("edge blob %d bytes does not exercise the blob/plaintext gap", len(edgeBlob))
	}
	edge := block.Chunk{Enc: true, Blocks: []block.Block{{Origin: 0, Len: edgePT}}, Payload: edgeBlob}
	if pc.streamsForSend(block.Message{Chunks: []block.Chunk{edge}}) != nil {
		t.Fatal("sub-threshold plaintext streamed because its sealed blob crossed the threshold")
	}
	// A big pre-sealed blob re-streams along its recorded segment
	// boundaries (the forwarding path). Pin the split size: the adaptive
	// plan may seal as one segment on a single-CPU host, and k=1 blobs
	// rightly refuse to stream.
	fwdSealer, err := seal.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	fwdSealer.SetSegmentSize(64 << 10)
	big := bytes.Repeat([]byte{9}, 256<<10)
	blob, _, err := fwdSealer.SealSegmented([][]byte{big}, []byte("fwd"))
	if err != nil {
		t.Fatal(err)
	}
	plan = pc.streamsForSend(block.Message{Chunks: []block.Chunk{
		{Enc: true, Blocks: []block.Block{{Origin: 0, Len: 256 << 10}}, Payload: blob}}})
	if plan == nil || plan.streams != 1 {
		t.Fatal("forwarded segmented blob did not re-stream")
	}
	if b, err := plan.chunks[0].stream.Blob(); err != nil || !bytes.Equal(b, blob) {
		t.Fatalf("re-streamed blob diverged: %v", err)
	}
}

// materializeMessage must never ship a half-materialized message: on a
// mid-loop Blob failure it returns a zero message and the original —
// pending streams intact — is left untouched.
func TestMaterializeMessageErrorContract(t *testing.T) {
	slr, err := seal.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{3}, 64<<10)
	stA := slr.NewSealStream([][]byte{pt}, []byte("a"))
	stB := slr.NewSealStream([][]byte{pt}, []byte("b"))
	if stA == nil || stB == nil {
		t.Fatal("no seal streams")
	}
	plain := block.NewPlain(0, []byte("done")).Chunks[0]
	msg := block.Message{Chunks: []block.Chunk{
		plain,
		{Enc: true, Stream: stA},
		{Enc: true, Stream: stB},
	}}

	// Fail the second stream's Blob: the first has already materialized
	// into the copied slice when the error hits.
	calls := 0
	streamBlob = func(st *seal.SealStream) ([]byte, error) {
		if calls++; calls == 2 {
			return nil, errors.New("injected blob failure")
		}
		return st.Blob()
	}
	defer func() { streamBlob = (*seal.SealStream).Blob }()

	out, err := materializeMessage(msg)
	if err == nil {
		t.Fatal("mid-loop blob failure not surfaced")
	}
	if len(out.Chunks) != 0 {
		t.Fatalf("error path returned a shippable message with %d chunks", len(out.Chunks))
	}
	if msg.Chunks[1].Stream != stA || msg.Chunks[2].Stream != stB || msg.Chunks[1].Payload != nil {
		t.Fatal("original message mutated on the error path")
	}

	// Success path: all streams materialize into a copy, original intact.
	out, err = materializeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range out.Chunks {
		if c.Stream != nil {
			t.Fatalf("chunk %d still pending after materialize", i)
		}
	}
	if out.Chunks[1].Payload == nil || out.Chunks[2].Payload == nil {
		t.Fatal("materialized chunks carry no blob")
	}
	if msg.Chunks[1].Stream != stA || msg.Chunks[2].Stream != stB {
		t.Fatal("original message mutated on the success path")
	}
}

// streamRecv assembles out-of-order segment arrivals, opening each as
// it is accepted, detects duplicate indices, and delivers the blob and
// plaintext only when every segment authenticated.
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
	os, err := slr.NewOpenStream(st.Header(), aad)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan block.Chunk, 1)
	failed := make(chan error, 1)
	lm := newLiveMetrics(metrics.NewRegistry(), Spec{P: 1, N: 1}, EngineTCP)
	sr := newStreamRecv(os, nil, 0, lm,
		func(c block.Chunk) { delivered <- c },
		func(err error) { failed <- err })
	// Fill in reverse order: arrival order must not matter.
	for i := st.K() - 1; i >= 0; i-- {
		seg, err := st.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		if sr.markSeen(i) {
			t.Fatalf("segment %d flagged as duplicate on first arrival", i)
		}
		copy(os.SegmentSlot(i), seg)
		sr.accept(i)
	}
	if !sr.markSeen(0) {
		t.Fatal("duplicate segment not detected")
	}
	select {
	case c := <-delivered:
		if !bytes.Equal(c.Opened, pt) {
			t.Fatal("assembled plaintext diverged")
		}
		if got, _, err := slr.OpenSegmented(c.Payload, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("assembled blob does not open: %v", err)
		}
	case err := <-failed:
		t.Fatalf("clean stream failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("stream never delivered")
	}
}
