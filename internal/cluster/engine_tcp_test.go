package cluster

import (
	"bytes"
	"context"
	"testing"

	"encag/internal/block"
)

// encRing is a minimal encrypted ring all-gather that smoke-tests the
// engines directly: a rank seals only what it forwards to another node.
func encRing(p *Proc, mine block.Message) block.Message {
	result := mine.Clone()
	cur := mine
	next := (p.Rank() + 1) % p.P()
	prev := (p.Rank() - 1 + p.P()) % p.P()
	for i := 0; i < p.P()-1; i++ {
		var out block.Message
		if p.SameNode(p.Rank(), next) {
			if cur.HasCiphertext() {
				cur = p.DecryptAll(cur)
			}
			out = cur
		} else if cur.HasCiphertext() {
			out = cur
		} else {
			out = block.Message{Chunks: []block.Chunk{p.Encrypt(cur.Chunks...)}}
		}
		cur = p.SendRecv(next, out, prev)
		result.Append(cur.Chunks...)
	}
	return p.Assemble(p.DecryptAll(result))
}

func TestTCPEngineEncryptedRing(t *testing.T) {
	spec := Spec{P: 8, N: 4, Mapping: BlockMapping}
	s, res := once(t, spec, SessionConfig{Engine: EngineTCP}, Op{Algo: encRing, MsgSize: 128})
	contract(t, s, block.UniformSizes(spec.P, 128), res)
}

// Positive control: with crypto disabled, plaintext IS visible on the
// wire — proving the sniffer actually sees payload bytes.
func TestTCPSnifferPositiveControl(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	const m = 128
	s, err := OpenSession(spec, SessionConfig{Engine: EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Collective(context.Background(), Op{Algo: Plain(encRing), MsgSize: m})
	s.Close() // the wire capture is final once the send loops stop
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for r := 0; r < spec.P; r++ {
		if s.Sniffer().Contains(block.FillPattern(r, m)) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("control failed: plaintext ring left no plaintext on the wire (sniffer broken?)")
	}
}

func TestTCPWireSnifferCap(t *testing.T) {
	s := &WireSniffer{}
	s.record(make([]byte, sniffKeep-6))
	s.record(bytes.Repeat([]byte{2}, 10))
	if s.Total() != sniffKeep+4 {
		t.Fatalf("total = %d", s.Total())
	}
	if got := s.buf.Len(); got != sniffKeep {
		t.Fatalf("kept %d bytes, want %d", got, sniffKeep)
	}
}

func TestTCPWireSnifferTruncated(t *testing.T) {
	s := &WireSniffer{}
	if s.Truncated() {
		t.Fatal("fresh sniffer marked truncated")
	}
	s.record(make([]byte, sniffKeep))
	if s.Truncated() {
		t.Fatal("capture marked truncated at exactly the cap")
	}
	s.record([]byte{9})
	if !s.Truncated() {
		t.Fatal("over-cap capture not marked truncated")
	}
}
