package cluster

import (
	"bytes"
	"testing"

	"encag/internal/block"
)

// sendRecvExchange is a minimal two-phase encrypted exchange used to
// smoke-test the TCP engine directly.
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
		result = block.Concat(result, cur)
	}
	return p.Assemble(p.DecryptAll(result))
}

func TestTCPEngineEncryptedRing(t *testing.T) {
	spec := Spec{P: 8, N: 4, Mapping: BlockMapping}
	const m = 128
	res, err := RunOnce(spec, SessionConfig{Engine: EngineTCP}, Op{Algo: encRing, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, m, res.Results, true); err != nil {
		t.Fatal(err)
	}
	if MessageTotals(res.PerRank).PlainInterMsgs != 0 {
		t.Fatalf("audit violations: %v", MessageTotals(res.PerRank).Violations)
	}
	if res.Sniffer.Total() == 0 {
		t.Fatal("sniffer captured nothing despite inter-node traffic")
	}
	// The eavesdropper's view must not contain any rank's plaintext.
	for r := 0; r < spec.P; r++ {
		needle := block.FillPattern(r, m)
		if res.Sniffer.Contains(needle) {
			t.Fatalf("rank %d plaintext visible on the wire", r)
		}
	}
}

// Positive control: with crypto disabled, plaintext IS visible on the
// wire — proving the sniffer actually sees payload bytes.
func TestTCPSnifferPositiveControl(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	const m = 128
	res, err := RunOnce(spec, SessionConfig{Engine: EngineTCP}, Op{Algo: Plain(encRing), MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for r := 0; r < spec.P; r++ {
		if res.Sniffer.Contains(block.FillPattern(r, m)) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("control failed: plaintext ring left no plaintext on the wire (sniffer broken?)")
	}
}

func TestTCPWireSnifferCap(t *testing.T) {
	s := &WireSniffer{MaxKeep: 16}
	s.record(bytes.Repeat([]byte{1}, 10))
	s.record(bytes.Repeat([]byte{2}, 10))
	if s.Total() != 20 {
		t.Fatalf("total = %d", s.Total())
	}
	if got := len(s.Bytes()); got != 16 {
		t.Fatalf("kept %d bytes, want 16", got)
	}
}

func TestTCPWireSnifferTruncated(t *testing.T) {
	s := &WireSniffer{MaxKeep: 4}
	if s.Truncated() {
		t.Fatal("fresh sniffer marked truncated")
	}
	s.record(bytes.Repeat([]byte{9}, 10))
	if !s.Truncated() {
		t.Fatal("over-cap capture not marked truncated")
	}
}
